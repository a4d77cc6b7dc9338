// Integrity layer: checksum codec properties and the corruption ledger's
// bookkeeping (docs/INTEGRITY.md).

#include "src/integrity/integrity.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <initializer_list>
#include <vector>

#include "src/base/rng.h"
#include "src/integrity/page_checksum.h"
#include "src/mem/remote_heap.h"
#include "src/obs/metric_registry.h"

namespace adios {
namespace {

// --- Checksum codec ---

TEST(PageChecksum, ZeroPageHasStableNonTrivialDigest) {
  std::vector<uint8_t> page(kPageSize, 0);
  const uint64_t a = PageChecksum(page.data(), page.size(), 41);
  const uint64_t b = PageChecksum(page.data(), page.size(), 41);
  EXPECT_EQ(a, b);
  // An all-zero page must not digest to zero (the classic "memset page
  // passes its CRC" failure mode).
  EXPECT_NE(a, 0u);
  // Nor may it collide with the empty digest.
  EXPECT_NE(a, PageChecksum(nullptr, 0, 41));
}

TEST(PageChecksum, SingleBitFlipChangesDigest) {
  std::vector<uint8_t> page(kPageSize, 0);
  for (size_t i = 0; i < page.size(); ++i) {
    page[i] = static_cast<uint8_t>(i * 131 + 7);
  }
  const uint64_t clean = PageChecksum(page.data(), page.size(), 41);
  // Flip one bit at the front, middle, and tail of the page.
  for (const size_t byte : {size_t{0}, page.size() / 2, page.size() - 1}) {
    for (const int bit : {0, 3, 7}) {
      page[byte] ^= static_cast<uint8_t>(1u << bit);
      EXPECT_NE(PageChecksum(page.data(), page.size(), 41), clean)
          << "byte " << byte << " bit " << bit;
      page[byte] ^= static_cast<uint8_t>(1u << bit);
    }
  }
  EXPECT_EQ(PageChecksum(page.data(), page.size(), 41), clean);
}

TEST(PageChecksum, TornWordAndSwappedWordsChangeDigest) {
  std::vector<uint8_t> page(kPageSize, 0);
  for (size_t i = 0; i < page.size(); ++i) {
    page[i] = static_cast<uint8_t>(i ^ (i >> 3));
  }
  const uint64_t clean = PageChecksum(page.data(), page.size(), 41);

  // Torn 8-byte word: one aligned word reverts to stale contents.
  std::vector<uint8_t> torn = page;
  const uint64_t stale = 0xdeadbeefcafef00dull;
  std::memcpy(torn.data() + 512, &stale, sizeof(stale));
  EXPECT_NE(PageChecksum(torn.data(), torn.size(), 41), clean);

  // Swapped adjacent words: the chained mix is position-sensitive, so a
  // same-multiset permutation must still change the digest.
  std::vector<uint8_t> swapped = page;
  uint8_t tmp[8];
  std::memcpy(tmp, swapped.data() + 64, 8);
  std::memcpy(swapped.data() + 64, swapped.data() + 72, 8);
  std::memcpy(swapped.data() + 72, tmp, 8);
  EXPECT_NE(PageChecksum(swapped.data(), swapped.size(), 41), clean);
}

TEST(PageChecksum, SeedChangesDigestButNotDetection) {
  std::vector<uint8_t> page(kPageSize, 0xab);
  const uint64_t s41 = PageChecksum(page.data(), page.size(), 41);
  const uint64_t s42 = PageChecksum(page.data(), page.size(), 42);
  EXPECT_NE(s41, s42);  // Seeded: digests differ per deployment...
  page[100] ^= 0x10;
  // ...but any seed detects the same flip.
  EXPECT_NE(PageChecksum(page.data(), page.size(), 41), s41);
  EXPECT_NE(PageChecksum(page.data(), page.size(), 42), s42);
}

TEST(PageChecksum, ShortTailIsZeroPaddedNotIgnored) {
  // Lengths that are not a multiple of 8 must still cover the tail bytes.
  std::vector<uint8_t> buf(13, 0);
  const uint64_t clean = PageChecksum(buf.data(), buf.size(), 41);
  buf[12] = 1;  // Last byte, inside the partial word.
  EXPECT_NE(PageChecksum(buf.data(), buf.size(), 41), clean);
  // And length itself is part of the digest domain.
  EXPECT_NE(PageChecksum(buf.data(), 12, 41), clean);
}

// Pins the codec's output so "deterministic across platforms" is checked
// and any later codec change is deliberate: it must update these values.
TEST(PageChecksum, KnownAnswers) {
  std::vector<uint8_t> zero(kPageSize, 0);
  std::vector<uint8_t> pattern(kPageSize, 0);
  for (size_t i = 0; i < pattern.size(); ++i) {
    pattern[i] = static_cast<uint8_t>(i * 131 + 7);
  }
  EXPECT_EQ(PageChecksum(nullptr, 0, 41), 0xf1f3936aa57d3624ull);
  EXPECT_EQ(PageChecksum(zero.data(), zero.size(), 41), 0x7cba51cf26467beaull);
  EXPECT_EQ(PageChecksum(pattern.data(), pattern.size(), 41), 0xb98e57f1265c088eull);
  EXPECT_EQ(PageChecksum(pattern.data(), 12, 41), 0x9157274812c6f015ull);
}

uint64_t WordAt(const std::vector<uint8_t>& page, size_t word) {
  uint64_t w;
  std::memcpy(&w, page.data() + word * 8, 8);
  return w;
}

void SetWord(std::vector<uint8_t>& page, size_t word, uint64_t w) {
  std::memcpy(page.data() + word * 8, &w, 8);
}

void FlipBit(uint8_t* data, uint64_t bit) {
  data[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
}

std::vector<uint8_t> RandomBytes(Rng& rng, size_t len) {
  std::vector<uint8_t> bytes(len);
  for (auto& b : bytes) {
    b = static_cast<uint8_t>(rng.Next());
  }
  return bytes;
}

TEST(PageChecksum, RandomFlipsTornWordsAndSwapsAreDetected) {
  Rng rng(20251017);
  constexpr size_t kWords = kPageSize / 8;
  constexpr int kTrials = 10'000;
  std::vector<uint8_t> page;
  uint64_t clean = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    // A fresh random page every 64 trials keeps the run cheap.
    if (trial % 64 == 0) {
      page = RandomBytes(rng, kPageSize);
      clean = PageChecksum(page.data(), page.size(), 41);
    }
    std::vector<uint8_t> bad = page;
    const int kind = trial % 4;
    if (kind == 0) {
      // 1-3 distinct random bits.
      const uint64_t nbits = rng.NextInRange(1, 3);
      std::vector<uint64_t> bits;
      while (bits.size() < nbits) {
        const uint64_t bit = rng.NextBelow(kPageSize * 8);
        if (std::find(bits.begin(), bits.end(), bit) == bits.end()) {
          bits.push_back(bit);
        }
      }
      for (const uint64_t bit : bits) {
        FlipBit(bad.data(), bit);
      }
    } else if (kind == 1) {
      // Torn word: one word overwritten with a different value.
      const size_t word = rng.NextBelow(kWords);
      uint64_t stale = rng.Next();
      if (stale == WordAt(page, word)) {
        stale = ~stale;
      }
      SetWord(bad, word, stale);
    } else {
      // Two unequal words swapped, in the same lane (i, i+4) or across
      // lanes (i, i+1).
      const size_t gap = kind == 2 ? 4 : 1;
      const size_t i = rng.NextBelow(kWords - gap);
      const uint64_t a = WordAt(page, i);
      const uint64_t b = WordAt(page, i + gap);
      if (a == b) {
        continue;  // Not a mutation.
      }
      SetWord(bad, i, b);
      SetWord(bad, i + gap, a);
    }
    ASSERT_NE(PageChecksum(bad.data(), bad.size(), 41), clean)
        << "trial " << trial << " kind " << kind;
  }
}

TEST(PageChecksum, SwapsWithinOneStripeAreDetected) {
  // On a one-stripe input each lane absorbs exactly one word, so a
  // lane-symmetric codec (identical lane seeds, XOR or add fold) would
  // collide on every one of these swaps.
  Rng rng(3);
  for (int trial = 0; trial < 1'000; ++trial) {
    const std::vector<uint8_t> stripe = RandomBytes(rng, 32);
    const uint64_t clean = PageChecksum(stripe.data(), stripe.size(), 41);
    for (size_t a = 0; a < 4; ++a) {
      for (size_t b = a + 1; b < 4; ++b) {
        std::vector<uint8_t> swapped = stripe;
        SetWord(swapped, a, WordAt(stripe, b));
        SetWord(swapped, b, WordAt(stripe, a));
        ASSERT_NE(PageChecksum(swapped.data(), swapped.size(), 41), clean)
            << "trial " << trial << " words " << a << "," << b;
      }
    }
  }
}

TEST(PageChecksum, DigestIgnoresAlignmentAndDetectsAtEveryOffset) {
  Rng rng(7);
  const std::vector<uint8_t> page = RandomBytes(rng, kPageSize);
  const uint64_t clean = PageChecksum(page.data(), page.size(), 41);
  std::vector<uint8_t> buf(kPageSize + 8);
  for (size_t off = 0; off < 8; ++off) {
    uint8_t* data = buf.data() + off;
    std::memcpy(data, page.data(), kPageSize);
    EXPECT_EQ(PageChecksum(data, kPageSize, 41), clean) << "offset " << off;
    for (int flip = 0; flip < 64; ++flip) {
      const uint64_t bit = rng.NextBelow(kPageSize * 8);
      FlipBit(data, bit);
      EXPECT_NE(PageChecksum(data, kPageSize, 41), clean)
          << "offset " << off << " bit " << bit;
      FlipBit(data, bit);
    }
  }
}

TEST(PageChecksum, EveryLengthAcrossStripesAndTailIsCovered) {
  // 0..96 bytes crosses the 32-byte stripe boundary, the leftover words and
  // the partial tail word.
  constexpr size_t kMaxLen = 96;
  Rng rng(11);
  std::vector<uint8_t> buf = RandomBytes(rng, kMaxLen + 1);
  std::vector<uint64_t> prefixes;
  for (size_t len = 0; len <= kMaxLen; ++len) {
    const uint64_t clean = PageChecksum(buf.data(), len, 41);
    // Prefixes of different lengths never collide.
    EXPECT_EQ(std::find(prefixes.begin(), prefixes.end(), clean), prefixes.end())
        << "len " << len;
    prefixes.push_back(clean);
    // Bytes past `len` are not read.
    buf[len] ^= 0xff;
    EXPECT_EQ(PageChecksum(buf.data(), len, 41), clean) << "len " << len;
    buf[len] ^= 0xff;
    // Every bit inside `len` is covered.
    for (size_t bit = 0; bit < len * 8; ++bit) {
      FlipBit(buf.data(), bit);
      EXPECT_NE(PageChecksum(buf.data(), len, 41), clean)
          << "len " << len << " bit " << bit;
      FlipBit(buf.data(), bit);
    }
  }
}

// --- Corruption ledger ---

class IntegrityLayerTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kPages = 8;
  static constexpr uint32_t kNodes = 2;
  static constexpr uint32_t kReplicas = 2;

  IntegrityLayerTest() : region_(kPages * kPageSize) {
    for (uint64_t page = 0; page < kPages; ++page) {
      std::byte* bytes = region_.MutablePage(page);
      for (uint64_t i = 0; i < kPageSize; ++i) {
        bytes[i] = static_cast<std::byte>((PageStart(page) + i) * 17 + 3);
      }
    }
    IntegrityConfig cfg;
    cfg.verify = true;
    layer_ = std::make_unique<IntegrityLayer>(cfg, &region_, kPages, kPageSize, kNodes,
                                              kReplicas);
  }

  // Repairs recorded by the test repair hook, as (vpage, node) pairs.
  std::vector<std::pair<uint64_t, uint32_t>> repairs_;

  void InstallRepairHook() {
    layer_->set_repair_fn(
        [this](uint64_t vpage, uint32_t node) { repairs_.emplace_back(vpage, node); });
  }

  RemoteRegion region_;
  std::unique_ptr<IntegrityLayer> layer_;
};

TEST_F(IntegrityLayerTest, PrimedSlotsVerifyClean) {
  for (uint64_t vpage = 0; vpage < kPages; ++vpage) {
    for (uint32_t slot = 0; slot < kReplicas; ++slot) {
      const uint32_t node = layer_->NodeOfSlot(vpage, slot);
      EXPECT_TRUE(layer_->VerifyFetch(/*wr_id=*/vpage, vpage, node));
      EXPECT_EQ(layer_->ChecksumOf(vpage, slot), layer_->ComputeChecksum(vpage));
    }
  }
  EXPECT_EQ(layer_->detected(), 0u);
  EXPECT_EQ(layer_->served_corrupt(), 0u);
}

TEST_F(IntegrityLayerTest, WireCorruptReadFailsVerifyExactlyOnce) {
  layer_->OnWireCorrupt(/*wr_id=*/3, /*is_write=*/false);
  EXPECT_FALSE(layer_->VerifyFetch(/*wr_id=*/3, /*vpage=*/3, /*node=*/1));
  // The flag is consumed by one completion: the retried READ is clean.
  EXPECT_TRUE(layer_->VerifyFetch(/*wr_id=*/3, /*vpage=*/3, /*node=*/1));
}

TEST_F(IntegrityLayerTest, StoredPoisonPersistsUntilCleanWriteLands) {
  // A wire-corrupted WRITE lands on (vpage 2, node 0): the stored copy is
  // poisoned, and stays poisoned across any number of reads.
  layer_->OnWritePosted(/*wr_id=*/100, /*vpage=*/2);
  layer_->OnWireCorrupt(/*wr_id=*/100, /*is_write=*/true);
  layer_->OnReplicaWritten(/*wr_id=*/100, /*vpage=*/2, /*node=*/0);
  EXPECT_TRUE(layer_->StoredPoisoned(2, 0));
  EXPECT_FALSE(layer_->VerifyFetch(/*wr_id=*/2, 2, /*node=*/0));
  EXPECT_FALSE(layer_->CheckPayload(/*wr_id=*/2, 2, /*node=*/0));
  // The replica slot on node 1 is untouched.
  EXPECT_TRUE(layer_->VerifyFetch(/*wr_id=*/2, 2, /*node=*/1));
  // A clean WRITE over the slot clears the poison.
  layer_->OnWritePosted(/*wr_id=*/101, /*vpage=*/2);
  layer_->OnReplicaWritten(/*wr_id=*/101, /*vpage=*/2, /*node=*/0);
  EXPECT_FALSE(layer_->StoredPoisoned(2, 0));
  EXPECT_TRUE(layer_->VerifyFetch(/*wr_id=*/2, 2, /*node=*/0));
}

TEST_F(IntegrityLayerTest, LostUpdateDetectedByRecompute) {
  // The app dirties page 5 but the write-back never lands: the recorded
  // digests go stale against the region, and the next verified fetch of
  // either slot catches it.
  region_.MutablePage(5)[9] ^= std::byte{0x40};
  EXPECT_FALSE(layer_->VerifyFetch(/*wr_id=*/5, 5, /*node=*/1));
  // A write-back fan-out refreshes both slots and the fetch is clean again.
  layer_->OnWritePosted(/*wr_id=*/200, /*vpage=*/5);
  layer_->OnWritePosted(/*wr_id=*/201, /*vpage=*/5);
  layer_->OnReplicaWritten(/*wr_id=*/200, /*vpage=*/5, /*node=*/1);
  layer_->OnReplicaWritten(/*wr_id=*/201, /*vpage=*/5, /*node=*/0);
  EXPECT_TRUE(layer_->VerifyFetch(/*wr_id=*/5, 5, /*node=*/1));
  EXPECT_TRUE(layer_->VerifyFetch(/*wr_id=*/5, 5, /*node=*/0));
}

TEST_F(IntegrityLayerTest, PostTimeSnapshotWinsOverCompletionTimeRegion) {
  // A WRITE posts while the region holds contents A; the page is re-dirtied
  // to B while the WRITE is in flight. The slot's digest must be A (what the
  // wire carried), so the slot correctly reads as stale afterwards.
  const uint64_t sum_a = layer_->ComputeChecksum(6);
  layer_->OnWritePosted(/*wr_id=*/300, /*vpage=*/6);
  region_.MutablePage(6)[0] ^= std::byte{0xff};  // Re-dirty in flight.
  layer_->OnReplicaWritten(/*wr_id=*/300, /*vpage=*/6, /*node=*/0);
  EXPECT_EQ(layer_->ChecksumOf(6, 0), sum_a);
  EXPECT_NE(layer_->ChecksumOf(6, 0), layer_->ComputeChecksum(6));
}

TEST_F(IntegrityLayerTest, DetectionConservationWithRepairHook) {
  InstallRepairHook();
  EXPECT_TRUE(layer_->OnCorruptionDetected(/*vpage=*/1, /*node=*/1, /*from_scrub=*/false));
  // Re-detection while the repair is outstanding neither recounts nor
  // re-queues.
  EXPECT_FALSE(layer_->OnCorruptionDetected(1, 1, /*from_scrub=*/true));
  ASSERT_EQ(repairs_.size(), 1u);
  EXPECT_EQ(repairs_[0], (std::pair<uint64_t, uint32_t>{1, 1}));
  EXPECT_EQ(layer_->detected(), 1u);
  EXPECT_EQ(layer_->repaired(), 0u);
  EXPECT_TRUE(layer_->Outstanding(1, /*slot=*/0));  // Node 1 hosts slot 0 of page 1.
  // The repair WRITE lands: outstanding drains into repaired.
  layer_->OnWritePosted(/*wr_id=*/400, /*vpage=*/1);
  layer_->OnReplicaWritten(/*wr_id=*/400, /*vpage=*/1, /*node=*/1);
  EXPECT_EQ(layer_->repaired(), 1u);
  EXPECT_FALSE(layer_->Outstanding(1, 0));
  // detected == repaired + outstanding.
  EXPECT_EQ(layer_->detected(), layer_->repaired() + 0u);
}

TEST_F(IntegrityLayerTest, NoRepairHookMeansUnrepairableStaysOutstanding) {
  EXPECT_TRUE(layer_->OnCorruptionDetected(/*vpage=*/4, /*node=*/0, /*from_scrub=*/true));
  EXPECT_EQ(layer_->detected(), 1u);
  EXPECT_EQ(layer_->unrepairable(), 1u);
  EXPECT_EQ(layer_->scrub_finds(), 1u);
  EXPECT_TRUE(layer_->Outstanding(4, /*slot=*/0));
  // Repeated scrub passes over the same dead slot never recount.
  EXPECT_FALSE(layer_->OnCorruptionDetected(4, 0, /*from_scrub=*/true));
  EXPECT_EQ(layer_->detected(), 1u);
  uint64_t outstanding = 0;
  layer_->ForEachOutstanding([&](uint64_t, uint32_t) { ++outstanding; });
  EXPECT_EQ(layer_->detected(), layer_->repaired() + outstanding);
}

TEST_F(IntegrityLayerTest, VerifyOffOracleCountsServedCorruption) {
  IntegrityConfig cfg;
  cfg.oracle = true;  // verify stays false.
  layer_.reset();     // A region has one watching layer.
  IntegrityLayer oracle(cfg, &region_, kPages, kPageSize, kNodes, kReplicas);
  oracle.OnWireCorrupt(/*wr_id=*/7, /*is_write=*/false);
  // The corrupted payload is still mapped (returns true)...
  EXPECT_TRUE(oracle.VerifyFetch(/*wr_id=*/7, /*vpage=*/7, /*node=*/1));
  // ...but the ledger remembers the app consumed bad bytes.
  EXPECT_EQ(oracle.served_corrupt(), 1u);
  EXPECT_EQ(oracle.VerifyCost(), 0u);
}

TEST_F(IntegrityLayerTest, RecomputeFilterSkipsDigestButNotWireEvidence) {
  bool skip = true;
  layer_->set_recompute_filter([&skip](uint64_t) { return skip; });
  // Region scrambled (as the checker's poison-on-evict does): the filter
  // suppresses the digest comparison...
  region_.MutablePage(0)[0] ^= std::byte{0xa5};
  EXPECT_TRUE(layer_->VerifyFetch(/*wr_id=*/0, /*vpage=*/0, /*node=*/0));
  // ...but hard evidence still convicts.
  layer_->OnWireCorrupt(/*wr_id=*/0, /*is_write=*/false);
  EXPECT_FALSE(layer_->VerifyFetch(/*wr_id=*/0, /*vpage=*/0, /*node=*/0));
  skip = false;
  region_.MutablePage(0)[0] ^= std::byte{0xa5};  // Restore: digest matches again.
  EXPECT_TRUE(layer_->VerifyFetch(/*wr_id=*/0, /*vpage=*/0, /*node=*/0));
}

// --- Digest memo ---

TEST_F(IntegrityLayerTest, MemoInvalidatedByWriteObject) {
  const uint64_t before = layer_->ComputeChecksum(3);
  region_.WriteObject<uint32_t>(PageStart(3) + 100, 0xfeedf00du);
  uint64_t memo = 0;
  EXPECT_FALSE(layer_->MemoValid(3, &memo));
  EXPECT_NE(layer_->ComputeChecksum(3), before);
  EXPECT_EQ(layer_->ComputeChecksum(3), layer_->FreshChecksum(3));
  EXPECT_TRUE(layer_->MemoValid(3, &memo));
  // The lost update is caught: no write-back refreshed the ledger.
  EXPECT_FALSE(layer_->VerifyFetch(/*wr_id=*/3, 3, /*node=*/1));
}

TEST_F(IntegrityLayerTest, MemoInvalidatedOnBothPagesByStraddlingWriteBytes) {
  const uint64_t sum3 = layer_->ComputeChecksum(3);
  const uint64_t sum4 = layer_->ComputeChecksum(4);
  const uint64_t untouched = layer_->ComputeChecksum(5);
  const std::vector<uint8_t> bytes(64, 0x5a);
  region_.WriteBytes(PageStart(4) - 32, bytes.data(), bytes.size());
  uint64_t memo = 0;
  EXPECT_FALSE(layer_->MemoValid(3, &memo));
  EXPECT_FALSE(layer_->MemoValid(4, &memo));
  EXPECT_TRUE(layer_->MemoValid(5, &memo));
  EXPECT_NE(layer_->ComputeChecksum(3), sum3);
  EXPECT_NE(layer_->ComputeChecksum(4), sum4);
  EXPECT_EQ(layer_->ComputeChecksum(3), layer_->FreshChecksum(3));
  EXPECT_EQ(layer_->ComputeChecksum(4), layer_->FreshChecksum(4));
  EXPECT_EQ(layer_->ComputeChecksum(5), untouched);
}

TEST_F(IntegrityLayerTest, MemoInvalidatedByMutablePage) {
  const uint64_t before = layer_->ComputeChecksum(2);
  region_.MutablePage(2)[4095] ^= std::byte{0x01};
  EXPECT_NE(layer_->ComputeChecksum(2), before);
  region_.MutablePage(2)[4095] ^= std::byte{0x01};
  EXPECT_EQ(layer_->ComputeChecksum(2), before);
}

TEST_F(IntegrityLayerTest, UnchangedPageHashesOnceAcrossThousandVerifies) {
  // Building the layer hashed nothing; the write primes page 1 first.
  EXPECT_EQ(layer_->digests_computed(), 0u);
  region_.WriteObject<uint8_t>(PageStart(1), 0x77);
  const uint64_t before = layer_->digests_computed();
  for (int i = 0; i < 1000; ++i) {
    // Both slots are stale against the written region, so every verify fails
    // the same way; the codec still runs only for the first.
    EXPECT_FALSE(layer_->VerifyFetch(/*wr_id=*/1, 1, layer_->NodeOfSlot(1, i % 2)));
  }
  EXPECT_EQ(layer_->digests_computed() - before, 1u);
}

TEST_F(IntegrityLayerTest, DigestsComputedProbeReadsTheCounter) {
  MetricRegistry registry;
  layer_->RegisterMetrics(&registry);
  region_.WriteObject<uint8_t>(PageStart(6), 1);  // Primes page 6: one hash.
  layer_->ComputeChecksum(6);                     // Re-hashes the written page.
  EXPECT_EQ(registry.ReadProbe("integrity.digests_computed"), 2.0);
}

TEST(IntegrityMemo, LargePageRehashesAfterWriteToFifthSubPage) {
  // 64 KiB vpages over 4 KiB write stamps: one vpage spans 16 stamps, and a
  // write to any of them must invalidate its memo.
  constexpr uint64_t kBigPage = uint64_t{1} << 16;
  RemoteRegion region(2 * kBigPage);
  IntegrityLayer layer(IntegrityConfig{}, &region, /*num_pages=*/2, kBigPage, /*num_nodes=*/1,
                       /*replicas=*/1);
  const uint64_t sum0 = layer.ComputeChecksum(0);
  const uint64_t sum1 = layer.ComputeChecksum(1);
  const uint64_t before = layer.digests_computed();
  region.WriteObject<uint16_t>(4 * kPageSize + 10, 0xbeef);  // 5th sub-page of vpage 0.
  EXPECT_NE(layer.ComputeChecksum(0), sum0);
  EXPECT_EQ(layer.ComputeChecksum(0), layer.FreshChecksum(0));
  EXPECT_EQ(layer.ComputeChecksum(1), sum1);
  EXPECT_EQ(layer.digests_computed() - before, 1u);
}

TEST(IntegrityMemo, WritesBeforeAttachAreCoveredByPriming) {
  RemoteRegion region(4 * kPageSize);
  region.WriteObject<uint64_t>(PageStart(2) + 8, 0x0123456789abcdefull);
  region.MutablePage(3)[0] = std::byte{0x11};
  EXPECT_EQ(region.WriteStampSum(0, region.size()), 0u);  // Not stamped yet.
  IntegrityLayer layer(IntegrityConfig{}, &region, /*num_pages=*/4, kPageSize, /*num_nodes=*/1,
                       /*replicas=*/1);
  // Writes before attach are the set-up bytes every slot starts from.
  for (uint64_t vpage = 0; vpage < 4; ++vpage) {
    EXPECT_FALSE(layer.Primed(vpage));
    EXPECT_EQ(layer.ChecksumOf(vpage, 0), layer.FreshChecksum(vpage));
    EXPECT_TRUE(layer.VerifyFetch(/*wr_id=*/vpage, vpage, /*node=*/0));
  }
  EXPECT_EQ(layer.digests_computed(), 0u);
  // The first write after attach primes page 2 from those bytes, so a lost
  // write-back of the new bytes is caught.
  const uint64_t setup_sum = layer.FreshChecksum(2);
  region.WriteObject<uint8_t>(PageStart(2), 0x5a);
  EXPECT_TRUE(layer.Primed(2));
  EXPECT_EQ(layer.ChecksumOf(2, 0), setup_sum);
  EXPECT_FALSE(layer.CheckPayload(/*wr_id=*/2, 2, /*node=*/0));
}

// --- Lazy priming ---

TEST_F(IntegrityLayerTest, ConstructionHashesNoPage) {
  EXPECT_EQ(layer_->digests_computed(), 0u);
  for (uint64_t vpage = 0; vpage < kPages; ++vpage) {
    EXPECT_FALSE(layer_->Primed(vpage));
    uint64_t memo = 0;
    EXPECT_FALSE(layer_->MemoValid(vpage, &memo));
  }
  // Clean-path verifies and scrub checks of unwritten pages hash nothing.
  for (uint64_t vpage = 0; vpage < kPages; ++vpage) {
    for (uint32_t slot = 0; slot < kReplicas; ++slot) {
      const uint32_t node = layer_->NodeOfSlot(vpage, slot);
      EXPECT_TRUE(layer_->VerifyFetch(/*wr_id=*/vpage, vpage, node));
      EXPECT_TRUE(layer_->CheckPayload(/*wr_id=*/vpage, vpage, node));
    }
  }
  EXPECT_EQ(layer_->digests_computed(), 0u);
}

TEST_F(IntegrityLayerTest, FirstWritePrimesExactlyItsPageOnce) {
  const uint64_t setup1 = layer_->FreshChecksum(1);
  const uint64_t setup4 = layer_->FreshChecksum(4);
  const uint64_t setup6 = layer_->FreshChecksum(6);
  const auto only_primed = [this](std::initializer_list<uint64_t> pages) {
    for (uint64_t vpage = 0; vpage < kPages; ++vpage) {
      const bool want = std::find(pages.begin(), pages.end(), vpage) != pages.end();
      EXPECT_EQ(layer_->Primed(vpage), want) << "vpage " << vpage;
    }
  };

  region_.WriteObject<uint32_t>(PageStart(1) + 40, 0xabcdu);
  only_primed({1});
  EXPECT_EQ(layer_->digests_computed(), 1u);
  region_.WriteObject<uint32_t>(PageStart(1) + 80, 0x1234u);  // Already primed.
  EXPECT_EQ(layer_->digests_computed(), 1u);

  const std::vector<uint8_t> bytes(32, 0x3c);
  region_.WriteBytes(PageStart(4) + 100, bytes.data(), bytes.size());
  only_primed({1, 4});
  EXPECT_EQ(layer_->digests_computed(), 2u);

  region_.MutablePage(6)[7] ^= std::byte{0x80};
  only_primed({1, 4, 6});
  EXPECT_EQ(layer_->digests_computed(), 3u);

  // Each slot recorded the set-up digest, not the written bytes'.
  for (uint32_t slot = 0; slot < kReplicas; ++slot) {
    EXPECT_EQ(layer_->ChecksumOf(1, slot), setup1);
    EXPECT_EQ(layer_->ChecksumOf(4, slot), setup4);
    EXPECT_EQ(layer_->ChecksumOf(6, slot), setup6);
  }
}

TEST(IntegrityPriming, LargePageFirstWritePrimesItsCoveringVpageOnce) {
  // 64 KiB vpages over 4 KiB write stamps: the first write to any of the 16
  // sub-pages primes the covering vpage; later first writes to its other
  // sub-pages find it primed.
  constexpr uint64_t kBigPage = uint64_t{1} << 16;
  RemoteRegion region(3 * kBigPage);
  IntegrityLayer layer(IntegrityConfig{}, &region, /*num_pages=*/3, kBigPage, /*num_nodes=*/1,
                       /*replicas=*/1);
  const uint64_t setup1 = layer.FreshChecksum(1);
  region.WriteObject<uint16_t>(kBigPage + 9 * kPageSize, 0xbeef);  // 10th sub-page of vpage 1.
  EXPECT_FALSE(layer.Primed(0));
  EXPECT_TRUE(layer.Primed(1));
  EXPECT_FALSE(layer.Primed(2));
  EXPECT_EQ(layer.digests_computed(), 1u);
  EXPECT_EQ(layer.ChecksumOf(1, 0), setup1);
  region.MutablePage(16 + 2)[0] = std::byte{1};  // 3rd sub-page of vpage 1.
  EXPECT_EQ(layer.digests_computed(), 1u);
  // The lost write-back of vpage 1 is caught on re-fetch.
  EXPECT_FALSE(layer.CheckPayload(/*wr_id=*/1, 1, /*node=*/0));
  EXPECT_TRUE(layer.CheckPayload(/*wr_id=*/0, 0, /*node=*/0));
}

TEST(IntegrityPriming, OneReplicaLostWritebackIsDetectedOnRefetch) {
  RemoteRegion region(4 * kPageSize);
  IntegrityConfig cfg;
  cfg.verify = true;
  IntegrityLayer layer(cfg, &region, /*num_pages=*/4, kPageSize, /*num_nodes=*/1,
                       /*replicas=*/1);
  EXPECT_TRUE(layer.VerifyFetch(/*wr_id=*/2, 2, /*node=*/0));  // First fetch: clean.
  region.WriteObject<uint64_t>(PageStart(2) + 16, 77);         // The app dirties it...
  EXPECT_FALSE(layer.VerifyFetch(/*wr_id=*/2, 2, /*node=*/0)); // ...write-back lost.
  // A landed write-back settles it.
  layer.OnWritePosted(/*wr_id=*/9, /*vpage=*/2);
  layer.OnReplicaWritten(/*wr_id=*/9, /*vpage=*/2, /*node=*/0);
  EXPECT_TRUE(layer.VerifyFetch(/*wr_id=*/2, 2, /*node=*/0));
}

TEST_F(IntegrityLayerTest, WriteLandingOnUnprimedPagePrimesTheOtherSlots) {
  // A re-silver WRITE to slot 0 of a never-written page: the other slot
  // keeps the set-up digest, which is also what the WRITE carried.
  const uint64_t setup = layer_->FreshChecksum(3);
  layer_->OnWritePosted(/*wr_id=*/500, /*vpage=*/3);
  layer_->OnReplicaWritten(/*wr_id=*/500, /*vpage=*/3, layer_->NodeOfSlot(3, 0));
  EXPECT_TRUE(layer_->Primed(3));
  EXPECT_EQ(layer_->ChecksumOf(3, 0), setup);
  EXPECT_EQ(layer_->ChecksumOf(3, 1), setup);
}

TEST_F(IntegrityLayerTest, SlotPlacementMatchesPlacementFormula) {
  // Slot k of vpage lives on node (vpage + k) % num_nodes, mirroring
  // PlacementMap so the checker can cross-audit the two maps.
  for (uint64_t vpage = 0; vpage < kPages; ++vpage) {
    for (uint32_t slot = 0; slot < kReplicas; ++slot) {
      EXPECT_EQ(layer_->NodeOfSlot(vpage, slot), (vpage + slot) % kNodes);
    }
  }
}

}  // namespace
}  // namespace adios
