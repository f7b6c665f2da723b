// Signature-keyed LRU plan registry for the concurrent NUFFT service.
//
// Plan construction (FFT twiddle tables, Horner coefficients, deconvolution
// factors) and set_points (fold-rescale, bin sort, tap table, tile set) are
// the two expensive per-problem setups the paper's plan/setpts/execute
// lifecycle amortizes. The registry extends that amortization ACROSS
// independent callers: requests carrying the same transform signature
// (precision, type, dim, modes, iflag, tol, and every result-affecting
// option) share one plan, and a 64-bit fingerprint of the
// point coordinates lets a repeated geometry skip set_points entirely — the
// service-level analogue of the plan-resident PointCache.
//
// Entries are handed out as shared_ptr: eviction (LRU, capacity-bounded)
// only drops the registry's reference, so in-flight dispatches finish on the
// plan they hold. Each entry carries its own mutex serializing plan
// construction, set_points, and execute for that signature.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <variant>

#include "core/plan.hpp"
#include "core/type3.hpp"
#include "obs/obs.hpp"

namespace cf::service {

/// Transform signature: everything that must match for two requests to share
/// a plan (and therefore to coalesce into one batched execute). ntransf is
/// deliberately absent — the service picks the batch size per dispatch.
/// Fields a transform type ignores are NORMALIZED by make_plan_key (type 3
/// has no mode grid), so option noise a plan cannot observe never splits
/// otherwise-identical requests into plans that refuse to coalesce.
struct PlanKey {
  std::uint8_t precision = 0;  ///< 0 = float, 1 = double
  std::int32_t type = 1;
  std::int32_t dim = 1;
  std::int32_t iflag = 1;
  std::int64_t N[3] = {1, 1, 1};
  double tol = 1e-6;
  std::int32_t method = 0;  ///< core::Method as int
  std::int32_t binsize[3] = {0, 0, 0};
  std::int32_t modeord = 0;
  double upsampfac = 2.0;  ///< fine-grid sigma; changes width, grid, and bits,
                           ///< so two sigma values are two plans

  bool operator==(const PlanKey&) const = default;
};

/// Builds the signature of a request (T selects the precision tag).
template <typename T>
PlanKey make_plan_key(int type, int dim, const std::int64_t* nmodes, int iflag,
                      double tol, const core::Options& opts);

struct PlanKeyHash {
  std::size_t operator()(const PlanKey& k) const;
};

/// 64-bit hash of the raw coordinate arrays (plus M and dim), a word at a
/// time in independent lanes, computed on the submitting thread. Matching
/// fingerprints let the dispatcher reuse the plan's current set_points; the probability of a spurious 64-bit match is
/// negligible next to hardware fault rates, mirroring content-addressed
/// caches elsewhere. Empty when a coordinate is NaN or Inf: the same pass
/// that reads every coordinate checks it, so the service rejects such a set
/// at submit at no extra O(M) cost.
template <typename T>
std::optional<std::uint64_t> point_fingerprint(int dim, std::size_t M, const T* x,
                                               const T* y, const T* z);

/// Type-3 fingerprint: hashes BOTH point sets (sources and target
/// frequencies), since set_points binds the plan's geometry-derived fine
/// grid, corrections, and phases to the pair. Empty when either set holds a
/// non-finite coordinate.
template <typename T>
std::optional<std::uint64_t> point_fingerprint3(int dim, std::size_t M, const T* x,
                                                const T* y, const T* z, std::size_t K,
                                                const T* s, const T* t, const T* u);

/// A registry entry's plan: empty until the first dispatcher builds it, then
/// the type-1/2 or type-3 plan of the key's precision.
using ServicePlan =
    std::variant<std::monostate, std::unique_ptr<core::Plan<float>>,
                 std::unique_ptr<core::Plan<double>>,
                 std::unique_ptr<core::Type3Plan<float>>,
                 std::unique_ptr<core::Type3Plan<double>>>;

/// Constructs the plan for `key` (batched executes sized up to
/// max_batch planes). Throws std::invalid_argument for bad signatures — the
/// service propagates that through the request futures.
ServicePlan make_plan(const PlanKey& key, vgpu::Device& dev, int max_batch);

/// One registry entry; `mu` serializes construction, set_points, and execute
/// for this signature (different signatures run concurrently).
struct PlanEntry {
  PlanKey key;
  std::mutex mu;
  ServicePlan plan;                  ///< built under mu by the first dispatcher
  std::uint64_t fingerprint = 0;     ///< point set currently loaded (0 = none)
  std::size_t M = 0;
  std::size_t K = 0;                 ///< type-3 target count currently loaded
};

/// LRU map PlanKey -> PlanEntry. acquire() is the only mutator; it touches
/// the entry to most-recently-used and evicts the tail beyond `capacity`.
/// Hits, misses and evictions count in the owning service's obs counters
/// (`metrics` must outlive the registry).
class PlanRegistry {
 public:
  PlanRegistry(std::size_t capacity, obs::ServiceMetrics& metrics);

  /// Returns the entry for `key`, creating (plan unbuilt) and evicting as
  /// needed. Thread-safe; the returned shared_ptr pins the entry against
  /// eviction for the caller's lifetime.
  std::shared_ptr<PlanEntry> acquire(const PlanKey& key);

 private:
  std::size_t cap_;
  obs::ServiceMetrics& metrics_;
  std::mutex mu_;
  std::list<std::shared_ptr<PlanEntry>> lru_;  ///< front = most recent
  std::unordered_map<PlanKey, std::list<std::shared_ptr<PlanEntry>>::iterator,
                     PlanKeyHash>
      map_;
};

}  // namespace cf::service
