// Faiss-like IVF-Flat vector similarity search (paper §5.2, Fig. 13).
//
// BIGANN-style 128-dimensional byte vectors are clustered into nlist
// inverted lists stored in remote memory (cluster-contiguous, like
// IndexIVFFlat's invlists). Centroids are small and hot, so they live in
// compute-node memory. A query computes distances to all centroids, probes
// the nprobe nearest clusters, and scans their vectors — long, compute- and
// fetch-heavy requests, the paper's "tens of milliseconds" class (scaled
// down here with the dataset).
//
// Substitution note: the real BIGANN dataset is not available offline, so
// Setup() synthesizes vectors as centroid + noise, which preserves the IVF
// access pattern (clustered lists, skewed scan lengths).

#ifndef ADIOS_SRC_APPS_FAISS_APP_H_
#define ADIOS_SRC_APPS_FAISS_APP_H_

#include <vector>

#include "src/apps/application.h"

namespace adios {

class FaissApp final : public Application {
 public:
  static constexpr uint32_t kDim = 128;  // SIFT descriptors (BIGANN, §5.2).
  // Compute costs (cycles): SIMD L2 over 128 dims per centroid and per
  // scanned vector, and the heap/partial sort of the centroid scores.
  static constexpr uint32_t kCoarseCyclesPerCentroid = 16;
  static constexpr uint32_t kScanCyclesPerVector = 24;
  static constexpr uint32_t kSelectCycles = 1200;

  struct Options {
    uint32_t num_vectors = 100000;
    uint32_t nlist = 512;  // Inverted lists.
    uint32_t nprobe = 16;  // Lists scanned per query.
  };

  explicit FaissApp(const Options& options) : options_(options) {}
  FaissApp() : FaissApp(Options{}) {}

  const char* name() const override { return "faiss-ivf"; }
  uint64_t WorkingSetBytes() const override;
  void Setup(RemoteHeap& heap) override;
  void FillRequest(Rng& rng, Request* req) override;
  void Handle(Request* req, WorkerApi& api) override;
  bool Verify(const Request& req) const override;
  const char* OpName(uint32_t op) const override { return "SEARCH"; }

 private:
  struct ProbeResult {
    uint64_t best_id = 0;
    uint64_t best_dist = ~0ull;
  };

  void MakeQuery(uint64_t key, uint8_t* out) const;
  void SelectProbes(const uint8_t* query, uint32_t* out_lists) const;
  // Scans cluster `list` against `query` using raw region bytes.
  void ScanList(const RemoteRegion& region, uint32_t list, const uint8_t* query,
                ProbeResult* best) const;

  RemoteAddr ListIdsAddr(uint32_t list) const;
  RemoteAddr ListVecsAddr(uint32_t list) const;

  Options options_;
  std::vector<uint8_t> centroids_;          // nlist x dim, compute-node local.
  std::vector<uint32_t> list_size_;         // Vectors per list.
  std::vector<uint64_t> list_ids_offset_;   // Remote offsets per list.
  std::vector<uint64_t> list_vecs_offset_;
  const RemoteRegion* region_ = nullptr;    // For host-side verification.
};

}  // namespace adios

#endif  // ADIOS_SRC_APPS_FAISS_APP_H_
