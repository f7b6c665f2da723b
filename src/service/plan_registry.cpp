#include "service/plan_registry.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <span>
#include <type_traits>

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

// murmur3's 64-bit finalizer: a bijection that avalanches every input bit.
inline std::uint64_t fmix64(std::uint64_t k) {
  k ^= k >> 33;
  k *= 0xff51afd7ed558ccdull;
  k ^= k >> 33;
  k *= 0xc4ceb9fe1a85ec53ull;
  k ^= k >> 33;
  return k;
}

// Point-set hash, a 64-bit word at a time: kLanes independent accumulators
// take consecutive words (xxHash64's round: multiply, rotate, multiply), so
// their multiplies pipeline instead of forming one dependent chain per byte.
// Each round is a bijection of its accumulator for a fixed word and of the
// word for a fixed accumulator, and finish() chains the lanes through
// fmix64, so a set that differs in a single word always hashes differently.
class PointHasher {
 public:
  PointHasher() {
    for (std::size_t l = 0; l < kLanes; ++l) acc_[l] = kSeed + l * kP1;
  }

  void add(std::uint64_t w) { acc_[0] = round(acc_[0], w); }

  // Hashes the n values of v (the tail block zero-padded; n itself is hashed
  // by the caller) and reports whether all of them are finite, in the one
  // pass over them: a value is NaN or Inf when its exponent bits are all set.
  template <typename T>
  bool add_finite(const T* v, std::size_t n) {
    using Bits = std::conditional_t<sizeof(T) == 4, std::uint32_t, std::uint64_t>;
    static_assert(sizeof(Bits) == sizeof(T) && std::numeric_limits<T>::is_iec559);
    constexpr Bits kExp = sizeof(T) == 4 ? Bits(0x7f800000u) : Bits(0x7ff0000000000000ull);
    constexpr std::size_t kPerBlock = kLanes * sizeof(std::uint64_t) / sizeof(T);
    Bits bad = 0;
    auto block = [&](const std::uint64_t (&w)[kLanes]) {
      Bits b[kPerBlock];
      std::memcpy(b, w, sizeof b);
      for (std::size_t l = 0; l < kLanes; ++l) acc_[l] = round(acc_[l], w[l]);
      for (std::size_t i = 0; i < kPerBlock; ++i) bad |= Bits((b[i] & kExp) == kExp);
    };
    std::size_t j = 0;
    for (; j + kPerBlock <= n; j += kPerBlock) {
      std::uint64_t w[kLanes];
      std::memcpy(w, v + j, sizeof w);
      block(w);
    }
    if (j < n) {
      std::uint64_t w[kLanes] = {};
      std::memcpy(w, v + j, (n - j) * sizeof(T));
      block(w);
    }
    return bad == 0;
  }

  // Never 0: that is the "no points loaded" sentinel in PlanEntry.
  std::uint64_t finish() const {
    std::uint64_t h = 0;
    for (const std::uint64_t a : acc_) h = fmix64(h ^ a);
    return h ? h : 1;
  }

 private:
  static constexpr std::size_t kLanes = 8;
  static constexpr std::uint64_t kP1 = 0x9e3779b185ebca87ull;  // xxHash64's primes
  static constexpr std::uint64_t kP2 = 0xc2b2ae3d27d4eb4full;
  static constexpr std::uint64_t kSeed = 0x27d4eb2f165667c5ull;

  static std::uint64_t round(std::uint64_t acc, std::uint64_t w) {
    return std::rotl(acc + w * kP2, 31) * kP1;
  }

  std::uint64_t acc_[kLanes];
};

// Hashes dim, M and the coordinate arrays dim uses; false if one is not
// finite.
template <typename T>
bool hash_points(PointHasher& h, int dim, std::size_t M, const T* x, const T* y,
                 const T* z) {
  h.add(static_cast<std::uint64_t>(dim));
  h.add(M);
  bool finite = true;
  if (x) finite &= h.add_finite(x, M);
  if (dim >= 2 && y) finite &= h.add_finite(y, M);
  if (dim >= 3 && z) finite &= h.add_finite(z, M);
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
  PointHasher h;
  if (!hash_points(h, dim, M, x, y, z)) return std::nullopt;
  return h.finish();
}

template <typename T>
std::optional<std::uint64_t> point_fingerprint3(int dim, std::size_t M, const T* x,
                                                const T* y, const T* z, std::size_t K,
                                                const T* s, const T* t, const T* u) {
  PointHasher h;
  if (!hash_points(h, dim, M, x, y, z) || !hash_points(h, dim, K, s, t, u))
    return std::nullopt;
  return h.finish();
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
