#include "core/streaming_isvd.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "base/check.h"
#include "base/stopwatch.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ivmf {

namespace {

struct RefreshInstruments {
  obs::Counter& warm;
  obs::Counter& cold;
  obs::Gauge& delta_fraction;
  obs::Gauge& drift_ratio;
  obs::Histogram& warm_seconds;
  obs::Histogram& cold_seconds;
  obs::Histogram& snapshot_seconds;
  obs::Histogram& decompose_seconds;

  static RefreshInstruments& Get() {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    static RefreshInstruments instruments{
        registry.GetCounter("streaming.refresh.count", {{"mode", "warm"}}),
        registry.GetCounter("streaming.refresh.count", {{"mode", "cold"}}),
        registry.GetGauge("streaming.refresh.delta_fraction"),
        registry.GetGauge("streaming.refresh.drift_ratio"),
        registry.GetHistogram("streaming.refresh.seconds", {{"mode", "warm"}}),
        registry.GetHistogram("streaming.refresh.seconds", {{"mode", "cold"}}),
        registry.GetHistogram("streaming.refresh.snapshot.seconds"),
        registry.GetHistogram("streaming.refresh.decompose.seconds")};
    return instruments;
  }
};

}  // namespace

StreamingIsvd::StreamingIsvd(int strategy, size_t rank,
                             SparseIntervalMatrix base,
                             const StreamingIsvdOptions& options)
    : strategy_(strategy),
      rank_(rank),
      options_(options),
      matrix_(std::move(base)) {
  IVMF_CHECK_MSG(strategy >= 0 && strategy <= 4,
                 "streaming ISVD strategy must be 0..4");
  Refresh();  // initial cold decomposition
}

void StreamingIsvd::ApplyBatch(const std::vector<IntervalTriplet>& batch) {
  for (const IntervalTriplet& t : batch) {
    const Interval previous = matrix_.Upsert(t.row, t.col, t.value);
    const double d_lo = t.value.lo - previous.lo;
    const double d_hi = t.value.hi - previous.hi;
    // Frobenius mass of the change, averaged over the two endpoint
    // matrices — the perturbation-size proxy WarmEligible compares against
    // the spectrum (Weyl: |σ_i(M + ΔM) - σ_i(M)| <= ||ΔM||₂ <= ||ΔM||_F).
    drift_sq_ += 0.5 * (d_lo * d_lo + d_hi * d_hi);
    ++cells_since_refresh_;
  }
  matrix_.MaybeCompact(options_.compact_threshold);
}

bool StreamingIsvd::WarmEligible() const {
  if (!options_.warm_start || !have_result_) return false;
  if (warm_lo_.cols() == 0) return false;  // rank-0 previous result
  const double fraction =
      static_cast<double>(cells_since_refresh_) /
      static_cast<double>(std::max<size_t>(1, last_refresh_nnz_));
  if (fraction > options_.warm_delta_bound) return false;
  // Previous leading singular value anchors the drift scale; a previously
  // zero spectrum has no subspace worth reusing.
  const double sigma_1 = result_.sigma.empty() ? 0.0 : result_.sigma[0].hi;
  if (!(sigma_1 > 0.0)) return cells_since_refresh_ == 0;
  return std::sqrt(drift_sq_) <= options_.warm_drift_bound * sigma_1;
}

void StreamingIsvd::CaptureWarmBases() {
  switch (strategy_) {
    case 0:
      // Single midpoint solve; both slots carry the right singular basis.
      warm_lo_ = result_.v.lower();
      warm_hi_ = warm_lo_;
      break;
    case 1:
      // Per-endpoint SVDs warm-start from their right singular bases.
      warm_lo_ = result_.v.lower();
      warm_hi_ = result_.v.upper();
      break;
    default: {
      // ISVD2–4 eigendecompose the Gram of the side RunIsvd resolved; its
      // Ritz vectors surface as V (kMtM) or, after the factor swap, U
      // (kMMt). Alignment permutations / sign flips and the target-b/c
      // column renormalization only reshuffle and rescale columns, so the
      // captured factor still spans the dominant subspace — all a warm
      // start needs.
      const GramSide side =
          ResolveGramSide(*snapshot_, options_.isvd.gram_side);
      const IntervalMatrix& factor =
          side == GramSide::kMMt ? result_.u : result_.v;
      warm_lo_ = factor.lower();
      warm_hi_ = factor.upper();
      break;
    }
  }
}

const IsvdResult& StreamingIsvd::Refresh() {
  obs::TraceSpan span("streaming.refresh");
  RefreshInstruments& instruments = RefreshInstruments::Get();
  Stopwatch sw;
  const bool warm = WarmEligible();
  (warm ? instruments.warm : instruments.cold).Add(1);
  if (!warm && have_result_ && options_.warm_start) {
    // A warm-capable refresh fell back to cold — say why, with the
    // quantities WarmEligible weighed.
    const double sigma_1 = result_.sigma.empty() ? 0.0 : result_.sigma[0].hi;
    obs::LogDebug("stream", "warm start declined; cold refresh",
                  {{"delta_cells", cells_since_refresh_},
                   {"base_nnz", last_refresh_nnz_},
                   {"drift", std::sqrt(drift_sq_)},
                   {"sigma_1", sigma_1}});
  }
  if (obs::Enabled()) {
    instruments.delta_fraction.Set(
        static_cast<double>(cells_since_refresh_) /
        static_cast<double>(std::max<size_t>(1, last_refresh_nnz_)));
    const double sigma_1 =
        (have_result_ && !result_.sigma.empty()) ? result_.sigma[0].hi : 0.0;
    instruments.drift_ratio.Set(
        sigma_1 > 0.0 ? std::sqrt(drift_sq_) / sigma_1 : 0.0);
  }

  Stopwatch phase;
  matrix_.MaybeCompact(options_.compact_threshold);
  // Decompose the shared frozen view. The merge (or, with an empty log, the
  // base copy) is paid once per mutation epoch; holding the view in
  // snapshot_ keeps (matrix_snapshot(), result()) a consistent pair for the
  // serving layer even while later ApplyBatch calls mutate matrix_.
  {
    obs::TraceSpan snapshot_span("streaming.snapshot");
    snapshot_ = matrix_.SharedSnapshot();
  }
  const SparseIntervalMatrix& snapshot = *snapshot_;
  stats_.snapshot_seconds = phase.Seconds();
  instruments.snapshot_seconds.Record(stats_.snapshot_seconds);

  IsvdOptions isvd_options = options_.isvd;
  if (warm) {
    isvd_options.lanczos.convergence_tol = options_.convergence_tol;
    isvd_options.lanczos.subspace_factor = options_.warm_subspace_factor;
    isvd_options.lanczos.subspace_extra = options_.warm_subspace_extra;
    isvd_options.warm_basis_lo = warm_lo_;
    isvd_options.warm_basis_hi = warm_hi_;
  }
  phase.Restart();
  {
    obs::TraceSpan decompose_span("streaming.decompose");
    result_ = RunIsvd(strategy_, snapshot, rank_, isvd_options);
  }
  stats_.decompose_seconds = phase.Seconds();
  instruments.decompose_seconds.Record(stats_.decompose_seconds);
  have_result_ = true;
  ++refresh_count_;
  CaptureWarmBases();

  stats_.warm = warm;
  stats_.delta_cells = cells_since_refresh_;
  stats_.iterations = result_.iterations;
  stats_.seconds = sw.Seconds();
  (warm ? instruments.warm_seconds : instruments.cold_seconds)
      .Record(stats_.seconds);
  cells_since_refresh_ = 0;
  drift_sq_ = 0.0;
  last_refresh_nnz_ = snapshot.nnz();
  return result_;
}

}  // namespace ivmf
