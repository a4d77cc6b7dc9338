// RocksDB-like KVS with GET and SCAN(n) (paper §5.2, Fig. 11).
//
// Models RocksDB's PlainTable-over-mmap read path: an index region mapping
// keys to record offsets, plus a key-sorted data file (PlainTable keeps
// records in key order). A SCAN(100) walks 100 consecutive index entries
// and materializes ~25 consecutive data pages (1 KB values), giving the
// 25-100x SCAN:GET service-time dispersion the paper reports — the bimodal
// workload under which preemptive scheduling (DiLOS-P) shines and Adios
// still wins.

#ifndef ADIOS_SRC_APPS_ROCKSDB_APP_H_
#define ADIOS_SRC_APPS_ROCKSDB_APP_H_

#include "src/apps/application.h"

namespace adios {

class RocksDbApp final : public Application {
 public:
  static constexpr uint32_t kOpGet = 0;
  static constexpr uint32_t kOpScan = 1;

  // Handler compute costs (cycles): request parse, index probe arithmetic,
  // record decode + iterator step per key, reply finalize, and the value
  // memcpy per 64 B (Memcached's rate).
  static constexpr uint32_t kParseCycles = 350;
  static constexpr uint32_t kIndexCycles = 150;
  static constexpr uint32_t kPerKeyCycles = 220;
  static constexpr uint32_t kFinalizeCycles = 400;
  static constexpr uint32_t kCopyCyclesPer64B = 4;

  struct Options {
    uint64_t num_keys = 1 << 19;
    uint32_t value_bytes = 1024;  // Paper's ratio discussion uses 1024 B.
    double scan_fraction = 0.01;  // 99% GET / 1% SCAN(100).
    uint32_t scan_length = 100;
  };

  explicit RocksDbApp(const Options& options);

  const char* name() const override { return "rocksdb"; }
  uint64_t WorkingSetBytes() const override;
  void Setup(RemoteHeap& heap) override;
  void FillRequest(Rng& rng, Request* req) override;
  void Handle(Request* req, WorkerApi& api) override;
  bool Verify(const Request& req) const override;

  uint32_t NumOpTypes() const override { return 2; }
  const char* OpName(uint32_t op) const override { return op == kOpGet ? "GET" : "SCAN"; }

  static uint64_t ValueSignature(uint64_t key) { return key * 0xff51afd7ed558ccdull + 7; }

 private:
  struct IndexEntry {
    uint64_t key = 0;
    RemoteAddr offset = 0;
  };

  uint64_t RecordBytes() const { return (16 + options_.value_bytes + 15) & ~15ull; }
  RemoteAddr IndexAddr(uint64_t key) const { return index_ + key * sizeof(IndexEntry); }

  // Reads one record's value signature via the index.
  uint64_t ReadValue(uint64_t key, WorkerApi& api);

  Options options_;
  RemoteAddr index_ = 0;
  RemoteAddr log_ = 0;
};

}  // namespace adios

#endif  // ADIOS_SRC_APPS_ROCKSDB_APP_H_
