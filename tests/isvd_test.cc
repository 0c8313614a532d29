#include "core/isvd.h"

#include <cmath>

#include <gtest/gtest.h>
#include "base/rng.h"
#include "core/accuracy.h"
#include "data/synthetic.h"
#include "linalg/svd.h"
#include "test_util.h"

namespace ivmf {
namespace {

using ::ivmf::testing::RandomIntervalMatrix;
using ::ivmf::testing::RandomMatrix;
using ::ivmf::testing::ReconstructionChecksum;

IntervalMatrix SmallTestMatrix(uint64_t seed, size_t rows = 12,
                               size_t cols = 18) {
  Rng rng(seed);
  return RandomIntervalMatrix(rows, cols, rng, 0.2, 1.0, 0.4);
}

TEST(Isvd0Test, DegenerateInputMatchesPlainSvd) {
  Rng rng(1);
  const Matrix m = RandomMatrix(8, 10, rng, 0.0, 1.0);
  const IsvdResult result = Isvd0(IntervalMatrix::FromScalar(m), 4);
  const SvdResult svd = ComputeSvd(m, 4);
  for (size_t j = 0; j < 4; ++j)
    EXPECT_NEAR(result.sigma[j].Mid(), svd.sigma[j], 1e-9);
  // Scalar target: factors are degenerate.
  EXPECT_TRUE(result.u.IsProper());
  EXPECT_DOUBLE_EQ(result.u.Span().MaxAbs(), 0.0);
  EXPECT_EQ(result.target, DecompositionTarget::kC);
}

TEST(Isvd0Test, FullRankDegenerateReconstructsExactly) {
  Rng rng(2);
  const Matrix m = RandomMatrix(6, 9, rng, 0.0, 1.0);
  const IsvdResult result = Isvd0(IntervalMatrix::FromScalar(m), 0);
  const IntervalMatrix recon = result.Reconstruct();
  EXPECT_TRUE(recon.lower().ApproxEquals(m, 1e-8));
}

TEST(Isvd0Test, DecomposesMidpointOfIntervals) {
  const IntervalMatrix m = SmallTestMatrix(3);
  const IsvdResult result = Isvd0(m, 0);
  const IntervalMatrix recon = result.Reconstruct();
  // Full-rank SVD of the midpoint reconstructs the midpoint.
  EXPECT_TRUE(recon.lower().ApproxEquals(m.Mid(), 1e-8));
}

TEST(Isvd0Test, TimingsArePopulated) {
  const IsvdResult result = Isvd0(SmallTestMatrix(4), 5);
  EXPECT_GE(result.timings.decompose, 0.0);
  EXPECT_GT(result.timings.Total(), 0.0);
}

class IsvdStrategyTest : public ::testing::TestWithParam<int> {};

TEST_P(IsvdStrategyTest, RankIsRespected) {
  const int strategy = GetParam();
  const IntervalMatrix m = SmallTestMatrix(5);
  const IsvdResult result = RunIsvd(strategy, m, 6);
  EXPECT_EQ(result.rank(), 6u);
  EXPECT_EQ(result.u.rows(), m.rows());
  EXPECT_EQ(result.u.cols(), 6u);
  EXPECT_EQ(result.v.rows(), m.cols());
  EXPECT_EQ(result.v.cols(), 6u);
}

TEST_P(IsvdStrategyTest, OutputsAreProperIntervals) {
  const int strategy = GetParam();
  for (const DecompositionTarget target :
       {DecompositionTarget::kA, DecompositionTarget::kB,
        DecompositionTarget::kC}) {
    IsvdOptions options;
    options.target = target;
    const IsvdResult result = RunIsvd(strategy, SmallTestMatrix(6), 5, options);
    EXPECT_TRUE(result.u.IsProper());
    EXPECT_TRUE(result.v.IsProper());
    for (const Interval& s : result.sigma) {
      EXPECT_TRUE(s.IsProper());
      EXPECT_GE(s.lo, -1e-9);  // singular values stay non-negative
    }
  }
}

TEST_P(IsvdStrategyTest, ScalarTargetsHaveDegenerateFactors) {
  const int strategy = GetParam();
  IsvdOptions options;
  options.target = DecompositionTarget::kB;
  const IsvdResult b = RunIsvd(strategy, SmallTestMatrix(7), 5, options);
  EXPECT_DOUBLE_EQ(b.u.Span().MaxAbs(), 0.0);
  EXPECT_DOUBLE_EQ(b.v.Span().MaxAbs(), 0.0);

  options.target = DecompositionTarget::kC;
  const IsvdResult c = RunIsvd(strategy, SmallTestMatrix(7), 5, options);
  for (const Interval& s : c.sigma) EXPECT_TRUE(s.IsScalar(1e-12));
}

TEST_P(IsvdStrategyTest, TargetBFactorsHaveUnitColumns) {
  const int strategy = GetParam();
  IsvdOptions options;
  options.target = DecompositionTarget::kB;
  const IsvdResult result = RunIsvd(strategy, SmallTestMatrix(8), 5, options);
  for (size_t j = 0; j < result.rank(); ++j) {
    EXPECT_NEAR(Norm2(result.ScalarU().Col(j)), 1.0, 1e-6);
    EXPECT_NEAR(Norm2(result.ScalarV().Col(j)), 1.0, 1e-6);
  }
}

TEST_P(IsvdStrategyTest, DegenerateInputGivesAccurateReconstruction) {
  // With zero-width intervals every strategy reduces to scalar SVD, so a
  // full-rank decomposition reconstructs the input (nearly) exactly.
  const int strategy = GetParam();
  Rng rng(9);
  const Matrix m = RandomMatrix(10, 8, rng, 0.1, 1.0);
  const IntervalMatrix im = IntervalMatrix::FromScalar(m);
  IsvdOptions options;
  options.target = DecompositionTarget::kB;
  const IsvdResult result = RunIsvd(strategy, im, 0, options);
  const AccuracyReport report =
      DecompositionAccuracy(im, result.Reconstruct());
  EXPECT_GT(report.harmonic_mean, 0.99) << "strategy " << strategy;
}

INSTANTIATE_TEST_SUITE_P(Strategies, IsvdStrategyTest,
                         ::testing::Values(1, 2, 3, 4));

TEST(IsvdTest, Isvd1AlignedFactorsReconstruct) {
  const IntervalMatrix m = SmallTestMatrix(10);
  IsvdOptions options;
  options.target = DecompositionTarget::kA;
  const IsvdResult result = Isvd1(m, 0, options);
  // Full-rank target-a reconstruction should track the endpoints closely
  // (alignment permutes consistently, so U_* Σ_* V_*ᵀ ≈ M_*).
  const AccuracyReport report = DecompositionAccuracy(m, result.Reconstruct());
  EXPECT_GT(report.harmonic_mean, 0.3);
}

TEST(IsvdTest, GramEigReuseMatchesDirectCall) {
  const IntervalMatrix m = SmallTestMatrix(11);
  IsvdOptions options;
  options.target = DecompositionTarget::kB;
  const GramEig gram = ComputeGramEig(m, 5, options);
  const IsvdResult direct = Isvd3(m, 5, options);
  const IsvdResult reused = Isvd3(m, 5, gram, options);
  EXPECT_TRUE(reused.u.lower().ApproxEquals(direct.u.lower(), 1e-9));
  EXPECT_TRUE(reused.v.upper().ApproxEquals(direct.v.upper(), 1e-9));
  for (size_t j = 0; j < 5; ++j) {
    EXPECT_NEAR(reused.sigma[j].lo, direct.sigma[j].lo, 1e-9);
    EXPECT_NEAR(reused.sigma[j].hi, direct.sigma[j].hi, 1e-9);
  }
}

TEST(IsvdTest, GramSideTransposeConsistency) {
  // The kMMt route must produce factor shapes consistent with the input.
  const IntervalMatrix m = SmallTestMatrix(12, 6, 15);
  IsvdOptions options;
  options.target = DecompositionTarget::kB;
  options.gram_side = GramSide::kMMt;
  const IsvdResult result = Isvd2(m, 4, options);
  EXPECT_EQ(result.u.rows(), 6u);
  EXPECT_EQ(result.v.rows(), 15u);
  EXPECT_EQ(result.rank(), 4u);
}

TEST(IsvdTest, TruncateGramEigMatchesDirectComputation) {
  const IntervalMatrix m = SmallTestMatrix(21);
  IsvdOptions options;
  options.target = DecompositionTarget::kB;
  const GramEig full = ComputeGramEig(m, 0, options);
  const GramEig direct = ComputeGramEig(m, 4, options);
  const GramEig sliced = TruncateGramEig(full, 4);
  ASSERT_EQ(sliced.lo.eigenvalues.size(), 4u);
  for (size_t j = 0; j < 4; ++j) {
    EXPECT_NEAR(sliced.lo.eigenvalues[j], direct.lo.eigenvalues[j], 1e-9);
    EXPECT_NEAR(sliced.hi.eigenvalues[j], direct.hi.eigenvalues[j], 1e-9);
  }
  // The downstream decomposition agrees too.
  const IsvdResult a = Isvd4(m, 4, direct, options);
  const IsvdResult b = Isvd4(m, 4, sliced, options);
  EXPECT_TRUE(a.u.lower().ApproxEquals(b.u.lower(), 1e-9));
  for (size_t j = 0; j < 4; ++j)
    EXPECT_NEAR(a.sigma[j].hi, b.sigma[j].hi, 1e-9);
}

TEST(IsvdTest, AutoSidePicksSmallerGram) {
  const IntervalMatrix wide = SmallTestMatrix(13, 5, 20);
  IsvdOptions options;
  options.gram_side = GramSide::kAuto;
  const GramEig gram = ComputeGramEig(wide, 3, options);
  EXPECT_TRUE(gram.transposed);        // 5 < 20: use M Mᵀ
  EXPECT_EQ(gram.gram.rows(), 5u);
}

TEST(IsvdTest, Isvd4RecomputationImprovesVAlignment) {
  // Figure 5 property: after the ISVD4 recomputation step the min/max V
  // factors are more similar than ISVD3's.
  Rng rng(14);
  SyntheticConfig config;
  config.rows = 20;
  config.cols = 30;
  const IntervalMatrix m = GenerateUniformIntervalMatrix(config, rng);
  IsvdOptions options;
  options.target = DecompositionTarget::kA;

  const GramEig gram = ComputeGramEig(m, 10, options);
  const IsvdResult r3 = Isvd3(m, 10, gram, options);
  const IsvdResult r4 = Isvd4(m, 10, gram, options);

  auto mean_abs_cos = [](const IsvdResult& r) {
    const std::vector<double> cosines =
        ColumnwiseCosine(r.v.lower(), r.v.upper());
    double sum = 0.0;
    for (double c : cosines) sum += std::abs(c);
    return sum / static_cast<double>(cosines.size());
  };
  EXPECT_GE(mean_abs_cos(r4), mean_abs_cos(r3) - 1e-9);
}

TEST(IsvdTest, RunIsvdDispatch) {
  const IntervalMatrix m = SmallTestMatrix(15);
  const IsvdResult r0 = RunIsvd(0, m, 3);
  EXPECT_EQ(r0.target, DecompositionTarget::kC);
  const IsvdResult r4 = RunIsvd(4, m, 3);
  EXPECT_EQ(r4.rank(), 3u);
}

TEST(IsvdTest, IsvdNameFormatting) {
  EXPECT_EQ(IsvdName(0, DecompositionTarget::kB), "ISVD0");
  EXPECT_EQ(IsvdName(1, DecompositionTarget::kA), "ISVD1-a");
  EXPECT_EQ(IsvdName(3, DecompositionTarget::kB), "ISVD3-b");
  EXPECT_EQ(IsvdName(4, DecompositionTarget::kC), "ISVD4-c");
}

TEST(IsvdTest, PhaseTimingsAccumulate) {
  PhaseTimings a;
  a.decompose = 1.0;
  a.align = 0.5;
  PhaseTimings b;
  b.decompose = 2.0;
  b.solve = 0.25;
  a += b;
  EXPECT_DOUBLE_EQ(a.decompose, 3.0);
  EXPECT_DOUBLE_EQ(a.align, 0.5);
  EXPECT_DOUBLE_EQ(a.solve, 0.25);
  EXPECT_DOUBLE_EQ(a.Total(), 3.75);
}

TEST(IsvdTest, ReconstructTargetAUsesIntervalAlgebra) {
  const IntervalMatrix m = SmallTestMatrix(16);
  IsvdOptions options;
  options.target = DecompositionTarget::kA;
  const IsvdResult result = Isvd1(m, 4, options);
  const IntervalMatrix recon = result.Reconstruct();
  EXPECT_EQ(recon.rows(), m.rows());
  EXPECT_EQ(recon.cols(), m.cols());
  EXPECT_TRUE(recon.IsProper());  // interval matmul yields proper intervals
}

TEST(IsvdTest, ReconstructTargetCIsScalar) {
  IsvdOptions options;
  options.target = DecompositionTarget::kC;
  const IsvdResult result = Isvd2(SmallTestMatrix(17), 4, options);
  const IntervalMatrix recon = result.Reconstruct();
  EXPECT_DOUBLE_EQ(recon.Span().MaxAbs(), 0.0);
}

// ISVD1–4 hold recorded values: the dense twin of the sparse suite's
// Isvd234KeepTheirValues. ISVD1's tail and ISVD2–4 after the eigensolve are
// the bodies the dense and sparse paths share (core/isvd_internal.h), so a
// change there moves both paths at once, and only recorded values can see
// it. Jacobi, every target, ISVD2–4 on both Gram sides (kMMt runs on the
// transpose and swaps the factors back; dense ISVD1 forms no Gram, so it
// runs once, on kMtM), rank 3 of a 12 x 18 matrix on which ILSA
// swaps the second and third columns on both sides: σ₁–σ₃ and the
// ReconstructionChecksum of both reconstruction endpoints, recorded at
// %.17g before the dense and sparse bodies were merged; they hold at 1e-12
// relative.
TEST(IsvdTest, Isvd1To4KeepTheirValues) {
  struct Pinned {
    GramSide side;
    int strategy;
    DecompositionTarget target;
    double sigma[3][2];  // (lo, hi)
    double checksum[2];  // lower, upper reconstruction
  };
  const Pinned pins[] = {
      {GramSide::kMtM, 1, DecompositionTarget::kA,
       {{8.9421833598379195, 11.804478097453556},
        {1.3998833536191384, 1.6833215699279347},
        {1.511538677047273, 1.6192255481419797}},
       {498.44911086325106, 714.58462467838149}},
      {GramSide::kMtM, 1, DecompositionTarget::kB,
       {{8.9365929255130911, 11.797098226465998},
        {1.3002093742247636, 1.5634663269597753},
        {1.4616096066367741, 1.5657393703608133}},
       {521.07757255976503, 688.19340961174839}},
      {GramSide::kMtM, 1, DecompositionTarget::kC,
       {{10.366845575989544, 10.366845575989544},
        {1.4318378505922693, 1.4318378505922693},
        {1.5136744884987938, 1.5136744884987938}},
       {604.63549108575683, 604.63549108575683}},
      {GramSide::kMtM, 2, DecompositionTarget::kA,
       {{8.9421833598379088, 11.804478097453551},
        {1.3998833536191386, 1.6833215699279334},
        {1.5115386770472694, 1.6192255481419771}},
       {498.4491108632368, 714.58462467838888}},
      {GramSide::kMtM, 2, DecompositionTarget::kB,
       {{8.9365929255130929, 11.79709822646601},
        {1.300209374224796, 1.5634663269598128},
        {1.4616096066368205, 1.5657393703608642}},
       {521.0775725597631, 688.19340961174737}},
      {GramSide::kMtM, 2, DecompositionTarget::kC,
       {{10.366845575989553, 10.366845575989553},
        {1.4318378505923044, 1.4318378505923044},
        {1.5136744884988425, 1.5136744884988425}},
       {604.63549108575523, 604.63549108575523}},
      {GramSide::kMtM, 3, DecompositionTarget::kA,
       {{8.9421833598379088, 11.804478097453551},
        {1.3998833536191386, 1.6833215699279334},
        {1.5115386770472694, 1.6192255481419771}},
       {429.36798446742125, 807.17739312198978}},
      {GramSide::kMtM, 3, DecompositionTarget::kB,
       {{8.9367374350455844, 11.797288991913611},
        {1.3716737383506781, 1.6494002766015987},
        {1.4785098977362747, 1.5838436924895773}},
       {520.92886645049055, 688.02424495128639}},
      {GramSide::kMtM, 3, DecompositionTarget::kC,
       {{10.367013213479597, 10.367013213479597},
        {1.5105370074761384, 1.5105370074761384},
        {1.531176795112926, 1.531176795112926}},
       {604.47655570088887, 604.47655570088887}},
      {GramSide::kMtM, 4, DecompositionTarget::kA,
       {{8.9421833598379088, 11.804478097453551},
        {1.3998833536191386, 1.6833215699279334},
        {1.5115386770472694, 1.6192255481419771}},
       {388.70633639707722, 896.41551896448675}},
      {GramSide::kMtM, 4, DecompositionTarget::kB,
       {{8.936830710907163, 11.797412124354615},
        {1.3734109607717373, 1.6514892392037834},
        {1.4790111592272832, 1.5843806654594825}},
       {521.03103412125176, 688.16195161625467}},
      {GramSide::kMtM, 4, DecompositionTarget::kC,
       {{10.367121417630889, 10.367121417630889},
        {1.5124500999877604, 1.5124500999877604},
        {1.5316959123433829, 1.5316959123433829}},
       {604.59649286875356, 604.59649286875356}},
      {GramSide::kMMt, 2, DecompositionTarget::kA,
       {{8.9421833598379088, 11.804478097453551},
        {1.39988335361914, 1.6833215699279327},
        {1.5115386770472701, 1.6192255481419759}},
       {501.94647156733151, 711.08579060954503}},
      {GramSide::kMMt, 2, DecompositionTarget::kB,
       {{8.9365929255130894, 11.797098226466003},
        {1.3002093742259331, 1.5634663269611782},
        {1.4616096066367712, 1.5657393703608096}},
       {521.07757255975105, 688.19340961173179}},
      {GramSide::kMMt, 2, DecompositionTarget::kC,
       {{10.366845575989545, 10.366845575989545},
        {1.4318378505935558, 1.4318378505935558},
        {1.5136744884987903, 1.5136744884987903}},
       {604.63549108574148, 604.63549108574148}},
      {GramSide::kMMt, 3, DecompositionTarget::kA,
       {{8.9421833598379088, 11.804478097453551},
        {1.39988335361914, 1.6833215699279327},
        {1.5115386770472701, 1.6192255481419759}},
       {448.39812713306065, 791.76240259201018}},
      {GramSide::kMMt, 3, DecompositionTarget::kB,
       {{8.9367818362192413, 11.797347605415576},
        {1.372319087588044, 1.6501762914663964},
        {1.4784448998125903, 1.5837740639050053}},
       {521.15654129955408, 688.29507591406502}},
      {GramSide::kMMt, 3, DecompositionTarget::kC,
       {{10.367064720817408, 10.367064720817408},
        {1.5112476895272202, 1.5112476895272202},
        {1.5311094818587978, 1.5311094818587978}},
       {604.72580860680978, 604.72580860680978}},
      {GramSide::kMMt, 4, DecompositionTarget::kA,
       {{8.9421833598379088, 11.804478097453551},
        {1.39988335361914, 1.6833215699279327},
        {1.5115386770472701, 1.6192255481419759}},
       {389.19578114636852, 896.33728732475947}},
      {GramSide::kMMt, 4, DecompositionTarget::kB,
       {{8.9367995356930567, 11.797370970296676},
        {1.3733276838572814, 1.6513891009843944},
        {1.4787971683843506, 1.5841514292214629}},
       {521.050198627285, 688.17435758050726}},
      {GramSide::kMMt, 4, DecompositionTarget::kC,
       {{10.367085252994865, 10.367085252994865},
        {1.5123583924208381, 1.5123583924208381},
        {1.5314742988029069, 1.5314742988029069}},
       {604.61227810389585, 604.61227810389585}},
  };
  const IntervalMatrix m = SmallTestMatrix(8);
  const auto expect_near = [](double got, double want, const char* what) {
    EXPECT_NEAR(got, want, 1e-12 * std::fabs(want)) << what;
  };
  for (const Pinned& pin : pins) {
    SCOPED_TRACE(::testing::Message()
                 << "side " << static_cast<int>(pin.side) << ", strategy "
                 << pin.strategy << ", target "
                 << static_cast<int>(pin.target));
    IsvdOptions options;
    options.target = pin.target;
    options.eig_solver = EigSolver::kJacobi;
    options.gram_side = pin.side;
    const IsvdResult result = RunIsvd(pin.strategy, m, 3, options);
    ASSERT_EQ(result.rank(), 3u);
    for (size_t j = 0; j < 3; ++j) {
      expect_near(result.sigma[j].lo, pin.sigma[j][0], "sigma.lo");
      expect_near(result.sigma[j].hi, pin.sigma[j][1], "sigma.hi");
    }
    const IntervalMatrix recon = result.Reconstruct();
    expect_near(ReconstructionChecksum(recon.lower()), pin.checksum[0],
                "checksum.lo");
    expect_near(ReconstructionChecksum(recon.upper()), pin.checksum[1],
                "checksum.hi");
  }
}

}  // namespace
}  // namespace ivmf
