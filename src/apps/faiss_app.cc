#include "src/apps/faiss_app.h"

#include <algorithm>

namespace adios {

namespace {

uint64_t L2Distance(const uint8_t* a, const uint8_t* b, uint32_t dim) {
  uint64_t acc = 0;
  for (uint32_t i = 0; i < dim; ++i) {
    const int32_t d = static_cast<int32_t>(a[i]) - static_cast<int32_t>(b[i]);
    acc += static_cast<uint64_t>(d * d);
  }
  return acc;
}

}  // namespace

uint64_t FaissApp::WorkingSetBytes() const {
  // ids (8 B) + vector bytes per vector, plus per-list page alignment slack.
  return static_cast<uint64_t>(options_.num_vectors) * (kDim + 8) +
         static_cast<uint64_t>(options_.nlist + 4) * 2 * kPageSize;
}

RemoteAddr FaissApp::ListIdsAddr(uint32_t list) const { return list_ids_offset_[list]; }
RemoteAddr FaissApp::ListVecsAddr(uint32_t list) const { return list_vecs_offset_[list]; }

void FaissApp::Setup(RemoteHeap& heap) {
  RemoteRegion* region = heap.region();
  region_ = region;
  Rng rng(0xfa155);

  centroids_.resize(static_cast<size_t>(options_.nlist) * kDim);
  for (auto& b : centroids_) {
    b = static_cast<uint8_t>(rng.Next());
  }

  // Assign vectors to lists with mild skew (some lists 2-3x larger), like
  // real IVF cluster populations.
  list_size_.assign(options_.nlist, 0);
  std::vector<uint32_t> assignment(options_.num_vectors);
  for (uint32_t v = 0; v < options_.num_vectors; ++v) {
    const uint32_t a = static_cast<uint32_t>(rng.NextBelow(options_.nlist));
    const uint32_t b = static_cast<uint32_t>(rng.NextBelow(options_.nlist));
    // Skew: prefer the list that is already larger.
    const uint32_t pick = list_size_[a] >= list_size_[b] ? a : b;
    assignment[v] = pick;
    ++list_size_[pick];
  }

  // Lay lists out contiguously: [ids][vectors] per list.
  list_ids_offset_.resize(options_.nlist);
  list_vecs_offset_.resize(options_.nlist);
  for (uint32_t l = 0; l < options_.nlist; ++l) {
    list_ids_offset_[l] = heap.Alloc(static_cast<uint64_t>(list_size_[l]) * 8 + 8, 64);
    list_vecs_offset_[l] =
        heap.Alloc(static_cast<uint64_t>(list_size_[l]) * kDim + 64, 64);
  }

  // Write vectors: centroid + bounded noise, so content clusters properly.
  std::vector<uint32_t> cursor(options_.nlist, 0);
  std::vector<uint8_t> vec(kDim);
  for (uint32_t v = 0; v < options_.num_vectors; ++v) {
    const uint32_t l = assignment[v];
    const uint8_t* centroid = &centroids_[static_cast<size_t>(l) * kDim];
    for (uint32_t i = 0; i < kDim; ++i) {
      vec[i] = static_cast<uint8_t>(centroid[i] + static_cast<int>(rng.NextBelow(17)) - 8);
    }
    const uint32_t slot = cursor[l]++;
    region->WriteObject<uint64_t>(ListIdsAddr(l) + slot * 8ull, v);
    region->WriteBytes(ListVecsAddr(l) + static_cast<uint64_t>(slot) * kDim, vec.data(), kDim);
  }
}

void FaissApp::MakeQuery(uint64_t key, uint8_t* out) const {
  // Deterministic query near a (key-derived) centroid, replayable by Verify.
  Rng rng(key * 0x2545f4914f6cdd1dull + 3);
  const uint32_t home = static_cast<uint32_t>(key % options_.nlist);
  const uint8_t* centroid = &centroids_[static_cast<size_t>(home) * kDim];
  for (uint32_t i = 0; i < kDim; ++i) {
    out[i] = static_cast<uint8_t>(centroid[i] + static_cast<int>(rng.NextBelow(33)) - 16);
  }
}

void FaissApp::SelectProbes(const uint8_t* query, uint32_t* out_lists) const {
  std::vector<std::pair<uint64_t, uint32_t>> scored(options_.nlist);
  for (uint32_t l = 0; l < options_.nlist; ++l) {
    scored[l] = {L2Distance(query, &centroids_[static_cast<size_t>(l) * kDim], kDim), l};
  }
  std::partial_sort(scored.begin(), scored.begin() + options_.nprobe, scored.end());
  for (uint32_t p = 0; p < options_.nprobe; ++p) {
    out_lists[p] = scored[p].second;
  }
}

void FaissApp::ScanList(const RemoteRegion& region, uint32_t list, const uint8_t* query,
                        ProbeResult* best) const {
  const uint32_t n = list_size_[list];
  const std::byte* vecs = region.data() + ListVecsAddr(list);
  const std::byte* ids = region.data() + ListIdsAddr(list);
  for (uint32_t s = 0; s < n; ++s) {
    const uint64_t dist =
        L2Distance(query, reinterpret_cast<const uint8_t*>(vecs) + static_cast<uint64_t>(s) * kDim,
                   kDim);
    if (dist < best->best_dist) {
      best->best_dist = dist;
      uint64_t id;
      std::memcpy(&id, ids + s * 8ull, 8);
      best->best_id = id;
    }
  }
}

void FaissApp::FillRequest(Rng& rng, Request* req) {
  req->op = 0;
  req->key = rng.Next();
  req->reply_bytes = 128;
}

void FaissApp::Handle(Request* req, WorkerApi& api) {
  uint8_t query[kDim];
  MakeQuery(req->key, query);

  // Coarse quantization over local centroids (compute only).
  api.Compute(static_cast<uint64_t>(options_.nlist) * kCoarseCyclesPerCentroid +
              kSelectCycles);
  uint32_t probes[64];
  ADIOS_CHECK(options_.nprobe <= 64);
  SelectProbes(query, probes);

  // Scan the probed inverted lists from remote memory.
  ProbeResult best;
  for (uint32_t p = 0; p < options_.nprobe; ++p) {
    api.MaybePreempt();
    const uint32_t l = probes[p];
    const uint32_t n = list_size_[l];
    if (n == 0) {
      continue;
    }
    api.Access(ListIdsAddr(l), n * 8ull, /*write=*/false);
    api.Access(ListVecsAddr(l), static_cast<uint64_t>(n) * kDim, /*write=*/false);
    api.Compute(static_cast<uint64_t>(n) * kScanCyclesPerVector);
    ScanList(*api.region(), l, query, &best);
  }
  req->result = best.best_id;
}

bool FaissApp::Verify(const Request& req) const {
  // Host-side replay: same query, same probes, same scan.
  uint8_t query[kDim];
  MakeQuery(req.key, query);
  std::vector<uint32_t> probes(options_.nprobe);
  SelectProbes(query, probes.data());
  ProbeResult best;
  for (uint32_t p = 0; p < options_.nprobe; ++p) {
    if (list_size_[probes[p]] > 0) {
      ScanList(*region_, probes[p], query, &best);
    }
  }
  return req.result == best.best_id;
}

}  // namespace adios
