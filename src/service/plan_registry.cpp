#include "service/plan_registry.hpp"

#include <cmath>
#include <span>

namespace cf::service {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

inline std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

template <typename V>
inline std::uint64_t fnv1a_value(std::uint64_t h, const V& v) {
  return fnv1a(h, &v, sizeof(V));
}

// Hashes n coordinates (the same bytes fnv1a over the array would) and
// reports whether all of them are finite, in the one pass over them.
template <typename T>
bool fnv1a_finite(std::uint64_t& h, const T* v, std::size_t n) {
  bool finite = true;
  for (std::size_t j = 0; j < n; ++j) {
    h = fnv1a_value(h, v[j]);
    finite &= std::isfinite(v[j]);
  }
  return finite;
}

core::Options options_from_key(const PlanKey& key, int max_batch) {
  core::Options o;
  o.method = static_cast<core::Method>(key.method);
  o.binsize = {key.binsize[0], key.binsize[1], key.binsize[2]};
  o.ntransf = max_batch;  // batched executes up to the coalescing cap
  o.modeord = key.modeord;
  o.upsampfac = key.upsampfac;
  return o;
}

template <typename T>
ServicePlan make_typed_plan(const PlanKey& key, vgpu::Device& dev, int max_batch) {
  const core::Options opts = options_from_key(key, max_batch);
  if (key.type == 3)
    return std::make_unique<core::Type3Plan<T>>(dev, key.dim, key.iflag, key.tol, opts);
  return std::make_unique<core::Plan<T>>(
      dev, key.type, std::span(key.N, static_cast<std::size_t>(key.dim)), key.iflag,
      key.tol, opts);
}

}  // namespace

template <typename T>
PlanKey make_plan_key(int type, int dim, const std::int64_t* nmodes, int iflag,
                      double tol, const core::Options& opts) {
  PlanKey k;
  k.precision = std::is_same_v<T, double> ? 1 : 0;
  k.type = type;
  k.dim = dim;
  // Sign fold only: submit_impl has already rejected iflag == 0, so the fold
  // never silently turns "no direction chosen" into the +1 transform.
  k.iflag = iflag > 0 ? 1 : -1;
  for (int d = 0; d < dim && d < 3; ++d) k.N[d] = nmodes[d];
  k.tol = tol;
  k.method = static_cast<std::int32_t>(opts.method);
  k.binsize[0] = opts.binsize[0];
  k.binsize[1] = opts.binsize[1];
  k.binsize[2] = opts.binsize[2];
  k.modeord = opts.modeord;
  // Unset (<= 0) folds to the default sigma so a zero-initialized options
  // struct lands on the same plan as an explicit 2.0.
  k.upsampfac = opts.upsampfac > 0 ? opts.upsampfac : 2.0;
  if (type == 3) {
    // Type 3 has no mode grid: the fine grid is geometry-derived in
    // set_points (next235(sigma*(2*gamma*S + w)) per axis), so mode counts
    // and mode ordering are dead signature bits — normalize them or
    // requests differing only there would never share a plan.
    k.N[0] = k.N[1] = k.N[2] = 1;
    k.modeord = 0;
  }
  return k;
}

std::size_t PlanKeyHash::operator()(const PlanKey& k) const {
  // Field-by-field (never raw-struct: padding bytes are indeterminate).
  std::uint64_t h = kFnvOffset;
  h = fnv1a_value(h, k.precision);
  h = fnv1a_value(h, k.type);
  h = fnv1a_value(h, k.dim);
  h = fnv1a_value(h, k.iflag);
  h = fnv1a(h, k.N, sizeof(k.N));
  h = fnv1a_value(h, k.tol);
  h = fnv1a_value(h, k.method);
  h = fnv1a(h, k.binsize, sizeof(k.binsize));
  h = fnv1a_value(h, k.modeord);
  h = fnv1a_value(h, k.upsampfac);
  return static_cast<std::size_t>(h);
}

template <typename T>
std::optional<std::uint64_t> point_fingerprint(int dim, std::size_t M, const T* x,
                                               const T* y, const T* z) {
  std::uint64_t h = kFnvOffset;
  h = fnv1a_value(h, dim);
  h = fnv1a_value(h, M);
  bool finite = true;
  if (x) finite &= fnv1a_finite(h, x, M);
  if (dim >= 2 && y) finite &= fnv1a_finite(h, y, M);
  if (dim >= 3 && z) finite &= fnv1a_finite(h, z, M);
  if (!finite) return std::nullopt;
  // 0 is the "no points loaded" sentinel in PlanEntry; avoid colliding it.
  return h ? h : 1;
}

template <typename T>
std::optional<std::uint64_t> point_fingerprint3(int dim, std::size_t M, const T* x,
                                                const T* y, const T* z, std::size_t K,
                                                const T* s, const T* t, const T* u) {
  const auto src = point_fingerprint<T>(dim, M, x, y, z);
  if (!src) return std::nullopt;
  std::uint64_t h = fnv1a_value(*src, K);
  bool finite = true;
  if (s) finite &= fnv1a_finite(h, s, K);
  if (dim >= 2 && t) finite &= fnv1a_finite(h, t, K);
  if (dim >= 3 && u) finite &= fnv1a_finite(h, u, K);
  if (!finite) return std::nullopt;
  return h ? h : 1;
}

ServicePlan make_plan(const PlanKey& key, vgpu::Device& dev, int max_batch) {
  return key.precision == 1 ? make_typed_plan<double>(key, dev, max_batch)
                            : make_typed_plan<float>(key, dev, max_batch);
}

PlanRegistry::PlanRegistry(std::size_t capacity, obs::ServiceMetrics& metrics)
    : cap_(std::max<std::size_t>(1, capacity)), metrics_(metrics) {}

std::shared_ptr<PlanEntry> PlanRegistry::acquire(const PlanKey& key) {
  std::lock_guard lk(mu_);
  if (auto it = map_.find(key); it != map_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);  // touch to most recent
    metrics_.plan_hits->add(1);
    return *it->second;
  }
  auto entry = std::make_shared<PlanEntry>();
  entry->key = key;
  lru_.push_front(entry);
  map_[key] = lru_.begin();
  metrics_.plan_misses->add(1);
  while (lru_.size() > cap_) {
    map_.erase(lru_.back()->key);  // in-flight holders keep the plan alive
    lru_.pop_back();
    metrics_.plan_evictions->add(1);
  }
  return entry;
}

#define CF_INSTANTIATE(T)                                                               \
  template PlanKey make_plan_key<T>(int, int, const std::int64_t*, int, double,         \
                                    const core::Options&);                              \
  template std::optional<std::uint64_t> point_fingerprint<T>(int, std::size_t, const T*, \
                                                             const T*, const T*);      \
  template std::optional<std::uint64_t> point_fingerprint3<T>(                         \
      int, std::size_t, const T*, const T*, const T*, std::size_t, const T*, const T*, \
      const T*);

CF_INSTANTIATE(float)
CF_INSTANTIATE(double)
#undef CF_INSTANTIATE

}  // namespace cf::service
