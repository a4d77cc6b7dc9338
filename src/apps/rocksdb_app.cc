#include "src/apps/rocksdb_app.h"

namespace adios {

RocksDbApp::RocksDbApp(const Options& options) : options_(options) {
  ADIOS_CHECK(options_.num_keys > 0);
  ADIOS_CHECK(options_.scan_fraction >= 0.0 && options_.scan_fraction <= 1.0);
}

uint64_t RocksDbApp::WorkingSetBytes() const {
  return options_.num_keys * (sizeof(IndexEntry) + RecordBytes()) + 2 * kPageSize;
}

void RocksDbApp::Setup(RemoteHeap& heap) {
  RemoteRegion* region = heap.region();
  index_ = heap.AllocPages((options_.num_keys * sizeof(IndexEntry) + kPageSize - 1) / kPageSize);
  log_ = heap.AllocPages((options_.num_keys * RecordBytes() + kPageSize - 1) / kPageSize);

  // PlainTable data files are key-sorted: record k sits at slot k.
  for (uint64_t key = 0; key < options_.num_keys; ++key) {
    const RemoteAddr rec = log_ + key * RecordBytes();
    region->WriteObject<uint64_t>(rec, key);                      // Record header: key.
    region->WriteObject<uint64_t>(rec + 8, ValueSignature(key));  // Value head.
    region->WriteObject(IndexAddr(key), IndexEntry{key, rec});
  }
}

void RocksDbApp::FillRequest(Rng& rng, Request* req) {
  const bool scan = rng.NextBool(options_.scan_fraction);
  req->op = scan ? kOpScan : kOpGet;
  if (scan) {
    req->key = rng.NextBelow(options_.num_keys - options_.scan_length);
    req->scan_len = options_.scan_length;
    req->reply_bytes = 1024;  // Aggregated scan result.
  } else {
    req->key = rng.NextBelow(options_.num_keys);
    req->scan_len = 0;
    req->reply_bytes = 64 + options_.value_bytes;
  }
}

uint64_t RocksDbApp::ReadValue(uint64_t key, WorkerApi& api) {
  api.Compute(kIndexCycles);
  const IndexEntry e = api.Read<IndexEntry>(IndexAddr(key));
  // Touch the whole record (iterator materializes the value).
  api.Access(e.offset, 16 + options_.value_bytes, /*write=*/false);
  api.Compute(kPerKeyCycles + kCopyCyclesPer64B * (options_.value_bytes / 64 + 1));
  return api.region()->ReadObject<uint64_t>(e.offset + 8);
}

void RocksDbApp::Handle(Request* req, WorkerApi& api) {
  api.Compute(kParseCycles);
  if (req->op == kOpGet) {
    req->result = ReadValue(req->key, api);
  } else {
    // SCAN(n): iterate n consecutive keys, folding their values. Concord-
    // style preemption probes sit in the loop, as the paper's DiLOS-P does
    // with manually inserted yield checks.
    uint64_t acc = 0;
    for (uint32_t i = 0; i < req->scan_len; ++i) {
      api.MaybePreempt();
      acc += ReadValue(req->key + i, api);
    }
    req->result = acc;
  }
  api.Compute(kFinalizeCycles);
}

bool RocksDbApp::Verify(const Request& req) const {
  if (req.op == kOpGet) {
    return req.result == ValueSignature(req.key);
  }
  uint64_t acc = 0;
  for (uint32_t i = 0; i < req.scan_len; ++i) {
    acc += ValueSignature(req.key + i);
  }
  return req.result == acc;
}

}  // namespace adios
