// Scenario-pack battery: calibration, determinism, properties, and the
// parser rejection suite for the time-varying multi-tenant scenario layer.
//
// Load-bearing invariants:
//   (1) calibration — each committed scenario reproduces its headline stats
//       (write:read ratio, per-period skew, burst amplitude, peak/trough
//       swing) within declared tolerances of the published numbers (PAPER.md
//       Table 2/3 shape; EXPERIMENTS.md measured anchors; the comparative-
//       analysis paper's write-dominance + diurnal-pattern claims);
//   (2) determinism — golden FNV fingerprints per committed scenario file,
//       batch == streaming bit-identity at 1/2/4 workers, and the identity
//       scenario bit-identical to the stationary seed;
//   (3) properties — normalized curves conserve offered volume, churn never
//       resurrects a departed tenant, bursts are correlated within a tenant
//       and leave every other tenant bit-for-bit untouched;
//   (4) rejection — malformed/overlapping/out-of-range scenario files fail
//       with typed error codes and line numbers (trace_store_test
//       corruption-battery style) over the committed corpus grammar.

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "src/analysis/skewness.h"
#include "src/core/simulation.h"
#include "src/core/streaming.h"
#include "src/fault/schedule.h"
#include "src/scenario/builders.h"
#include "src/scenario/model.h"
#include "src/scenario/parser.h"
#include "src/scenario/spec.h"
#include "src/util/stats.h"

namespace ebs {
namespace {

using scenario::CompiledVdCurve;
using scenario::CurveOp;
using scenario::ScenarioError;
using scenario::ScenarioErrorCode;
using scenario::ScenarioLimits;
using scenario::ScenarioModel;
using scenario::ScenarioSpec;

constexpr size_t kWindow = 240;

// The corpus files pin tenant/vm/vd targets against exactly this fleet.
SimulationConfig ScenarioTestConfig() {
  SimulationConfig config = DcPreset(1);
  config.fleet.user_count = 48;
  config.workload.window_steps = kWindow;
  return config;
}

const Fleet& TestFleet() {
  static const Fleet fleet = BuildFleet(ScenarioTestConfig().fleet);
  return fleet;
}

std::string CorpusPath(const std::string& name) {
  return std::string(EBS_TEST_DATA_DIR) + "/scenarios/" + name;
}

ScenarioSpec LoadCorpus(const std::string& name) {
  return scenario::LoadScenarioFile(CorpusPath(name),
                                    scenario::LimitsForFleet(TestFleet(), kWindow));
}

// Batch runs are cached per corpus file ("" = stationary baseline): the
// calibration, property, and determinism tests all compare against the same
// baseline, and a run is the expensive part of this suite.
const EbsSimulation& BatchFor(const std::string& corpus) {
  static std::map<std::string, std::unique_ptr<EbsSimulation>>& cache =
      *new std::map<std::string, std::unique_ptr<EbsSimulation>>();
  std::unique_ptr<EbsSimulation>& slot = cache[corpus];
  if (slot == nullptr) {
    SimulationConfig config = ScenarioTestConfig();
    if (!corpus.empty()) {
      config.workload.scenario = LoadCorpus(corpus);
    }
    slot = std::make_unique<EbsSimulation>(config);
  }
  return *slot;
}

// FNV-1a over every field of every record (same hash as the fault chaos
// suite): equal fingerprints mean byte-identical trace streams.
uint64_t Fingerprint(const std::vector<TraceRecord>& records) {
  uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](const void* data, size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      h = (h ^ bytes[i]) * 1099511628211ULL;
    }
  };
  for (const TraceRecord& r : records) {
    mix(&r.timestamp, sizeof(r.timestamp));
    const uint32_t ids[] = {static_cast<uint32_t>(r.op), r.size_bytes,     r.user.value(),
                            r.vm.value(),                r.vd.value(),     r.qp.value(),
                            r.wt.value(),                r.cn.value(),     r.segment.value(),
                            r.bs.value(),                r.sn.value(),     r.fault_retries,
                            r.fault_timed_out ? 1u : 0u, r.fault_failed_over ? 1u : 0u};
    mix(ids, sizeof(ids));
    mix(&r.offset, sizeof(r.offset));
    mix(r.latency.component_us.data(), r.latency.component_us.size() * sizeof(double));
  }
  return h;
}

// Fingerprint of a (timestamp, vd, offset) stable re-sort. The golden corpus
// fingerprints were pinned in this form; every other comparison is order-
// sensitive, because batch and streaming both emit the canonical order.
uint64_t CanonicalFingerprint(std::vector<TraceRecord> records) {
  std::stable_sort(records.begin(), records.end(), [](const TraceRecord& a, const TraceRecord& b) {
    return std::make_tuple(a.timestamp, a.vd.value(), a.offset) <
           std::make_tuple(b.timestamp, b.vd.value(), b.offset);
  });
  return Fingerprint(records);
}

// Sum of offered (pre-throttle) bytes of one op over one tenant's VDs in
// step window [begin, end).
double TenantOfferedBytes(const EbsSimulation& sim, uint32_t tenant, OpType op, size_t begin,
                          size_t end) {
  double total = 0.0;
  for (const Vd& vd : sim.fleet().vds) {
    if (vd.user.value() != tenant) {
      continue;
    }
    const TimeSeries& series = sim.workload().offered_vd[vd.id.value()].Bytes(op);
    for (size_t t = begin; t < end; ++t) {
      total += series[t];
    }
  }
  return total;
}

std::vector<TraceRecord> TenantRecords(const std::vector<TraceRecord>& records, uint32_t tenant,
                                       bool invert = false) {
  std::vector<TraceRecord> out;
  for (const TraceRecord& r : records) {
    if ((r.user.value() == tenant) != invert) {
      out.push_back(r);
    }
  }
  return out;
}

// Fleet-aggregate offered bytes (read + write) per step.
std::vector<double> FleetStepBytes(const EbsSimulation& sim) {
  std::vector<double> totals(kWindow, 0.0);
  for (const RwSeries& series : sim.workload().offered_vd) {
    for (size_t t = 0; t < kWindow; ++t) {
      totals[t] += series.read_bytes[t] + series.write_bytes[t];
    }
  }
  return totals;
}

// --- Parser: corpus accepts + round-trips -------------------------------------

const char* const kCorpus[] = {"diurnal.scn", "flash_crowd.scn", "churn.scn",
                               "snapshot_scan.scn", "identity.scn"};

TEST(ScenarioParserTest, CommittedCorpusParsesAndRoundTrips) {
  for (const char* name : kCorpus) {
    const ScenarioSpec spec = LoadCorpus(name);
    EXPECT_FALSE(spec.name.empty()) << name;
    EXPECT_FALSE(spec.empty()) << name;
    // Canonical form is a fixed point: format -> parse -> format is stable.
    const std::string canonical = scenario::FormatScenario(spec);
    const ScenarioSpec reparsed = scenario::ParseScenario(
        canonical, scenario::LimitsForFleet(TestFleet(), kWindow));
    EXPECT_EQ(scenario::FormatScenario(reparsed), canonical) << name;
  }
}

// --- Parser rejection suite: one pinned case per error code -------------------

// Asserts `text` is rejected with `code` at `line` (0 = don't care).
void ExpectRejected(const std::string& text, ScenarioErrorCode code, size_t line,
                    const ScenarioLimits& limits = {}) {
  try {
    scenario::ParseScenario(text, limits);
    FAIL() << "accepted: " << text;
  } catch (const ScenarioError& error) {
    EXPECT_EQ(error.code(), code)
        << text << "\n  -> " << error.what();
    if (line > 0) {
      EXPECT_EQ(error.line(), line) << text << "\n  -> " << error.what();
    }
  }
}

TEST(ScenarioParserTest, RejectionBatteryCoversEveryErrorCode) {
  const std::string head = "scenario name=t\n";
  ScenarioLimits limits;
  limits.window_steps = kWindow;
  limits.tenant_count = 48;
  limits.vm_count = 100;
  limits.vd_count = 200;

  // kSyntax: bare token, and a duplicated key.
  ExpectRejected(head + "curve name phases=1,2", ScenarioErrorCode::kSyntax, 2);
  ExpectRejected(head + "arrive tenant=1 tenant=2 step=0", ScenarioErrorCode::kSyntax, 2);
  // kUnknownDirective.
  ExpectRejected(head + "wiggle foo=1", ScenarioErrorCode::kUnknownDirective, 2);
  // kUnknownKey.
  ExpectRejected(head + "arrive tenant=1 step=2 extra=3", ScenarioErrorCode::kUnknownKey, 2);
  // kMissingField.
  ExpectRejected(head + "burst tenant=1 start=5 duration=5", ScenarioErrorCode::kMissingField, 2);
  // kBadValue: non-numeric step, bad enum, negative amplitude, zero-mass
  // normalized curve.
  ExpectRejected(head + "arrive tenant=1 step=banana", ScenarioErrorCode::kBadValue, 2);
  ExpectRejected(head + "curve name=c op=sideways phases=1,2", ScenarioErrorCode::kBadValue, 2);
  ExpectRejected(head + "burst tenant=1 start=5 duration=5 amplitude=-2",
                 ScenarioErrorCode::kBadValue, 2);
  ExpectRejected(head + "curve name=c phases=0,0\napply curve=c", ScenarioErrorCode::kBadValue,
                 2);
  // kOutOfRange: window overrun, zero duration, period past the window.
  ExpectRejected(head + "snapshot vd=0 start=230 duration=40 amplitude=2",
                 ScenarioErrorCode::kOutOfRange, 2, limits);
  ExpectRejected(head + "migrate vm=0 start=10 duration=0", ScenarioErrorCode::kOutOfRange, 2,
                 limits);
  ExpectRejected(head + "curve name=c period=999 phases=1,2\napply curve=c",
                 ScenarioErrorCode::kOutOfRange, 2, limits);
  // Regression (fuzzer-found): a duration near SIZE_MAX used to wrap
  // `start + duration` around size_t and pass the window check.
  ExpectRejected(head + "burst tenant=1 start=5 duration=18446744073709551615 amplitude=2",
                 ScenarioErrorCode::kOutOfRange, 2, limits);
  // kDuplicateCurve.
  ExpectRejected(head + "curve name=c phases=1,2\ncurve name=c phases=2,1",
                 ScenarioErrorCode::kDuplicateCurve, 3);
  // kUnknownCurve.
  ExpectRejected(head + "apply curve=ghost", ScenarioErrorCode::kUnknownCurve, 2);
  // kOverlap: same-tenant burst windows, same-VM migration windows.
  ExpectRejected(head + "burst tenant=1 start=5 duration=10 amplitude=2\n"
                        "burst tenant=1 start=10 duration=10 amplitude=3",
                 ScenarioErrorCode::kOverlap, 3);
  ExpectRejected(head + "migrate vm=0 start=5 duration=10\nmigrate vm=0 start=14 duration=2",
                 ScenarioErrorCode::kOverlap, 3);
  // kConflict: no header, double header, double departure, depart-before-
  // arrive, double application of one curve to one tenant.
  ExpectRejected("arrive tenant=1 step=0", ScenarioErrorCode::kConflict, 1);
  ExpectRejected(head + "scenario name=again", ScenarioErrorCode::kConflict, 2);
  ExpectRejected(head + "depart tenant=1 step=5\ndepart tenant=1 step=9",
                 ScenarioErrorCode::kConflict, 3);
  ExpectRejected(head + "arrive tenant=1 step=100\ndepart tenant=1 step=50",
                 ScenarioErrorCode::kConflict, 3);
  ExpectRejected(head + "curve name=c phases=1,2\napply curve=c tenant=3\napply curve=c tenant=3",
                 ScenarioErrorCode::kConflict, 4);
  // kBadTarget: tenant/vm/vd outside the fleet's domains.
  ExpectRejected(head + "burst tenant=99 start=5 duration=5 amplitude=2",
                 ScenarioErrorCode::kBadTarget, 2, limits);
  ExpectRejected(head + "migrate vm=4000 start=5 duration=5", ScenarioErrorCode::kBadTarget, 2,
                 limits);
  ExpectRejected(head + "resize vd=4000 step=5 factor=2", ScenarioErrorCode::kBadTarget, 2,
                 limits);

  // kEmptyCurve only arises on hand-built specs (the grammar cannot express
  // a phase-less curve without tripping kBadValue first).
  ScenarioSpec empty_curve;
  empty_curve.name = "t";
  empty_curve.curves.push_back({});
  empty_curve.curves.back().name = "c";
  try {
    ValidateScenario(empty_curve, {});
    FAIL() << "empty curve accepted";
  } catch (const ScenarioError& error) {
    EXPECT_EQ(error.code(), ScenarioErrorCode::kEmptyCurve);
  }

  // kIoError: unreadable file.
  try {
    scenario::LoadScenarioFile(CorpusPath("does_not_exist.scn"));
    FAIL() << "missing file accepted";
  } catch (const ScenarioError& error) {
    EXPECT_EQ(error.code(), ScenarioErrorCode::kIoError);
  }
}

// --- Model: identity collapse and curve math ----------------------------------

TEST(ScenarioModelTest, IdentityScenarioCompilesToTheEmptyTransform) {
  // Every directive in identity.scn is numerically inert; the model must
  // collapse it structurally (no VD gets a curve), not just numerically.
  const ScenarioModel model(TestFleet(), LoadCorpus("identity.scn"), kWindow);
  EXPECT_EQ(model.affected_vds(), 0u);
  for (const Vd& vd : TestFleet().vds) {
    EXPECT_EQ(model.CurveFor(vd.id), nullptr) << vd.id.value();
  }
}

TEST(ScenarioModelTest, NormalizedCurveHasUnitWindowMean) {
  const ScenarioModel model(TestFleet(), LoadCorpus("diurnal.scn"), kWindow);
  EXPECT_GT(model.affected_vds(), 0u);
  size_t checked = 0;
  for (const Vd& vd : TestFleet().vds) {
    const CompiledVdCurve* curve = model.CurveFor(vd.id);
    if (curve == nullptr) {
      continue;
    }
    // Unit mean per op: the diurnal shape redistributes volume, it does not
    // add or remove any — the conservation property's exact-math half.
    EXPECT_NEAR(CurveWindowMean(curve, CurveOp::kRead, kWindow), 1.0, 1e-9) << vd.id.value();
    EXPECT_NEAR(CurveWindowMean(curve, CurveOp::kWrite, kWindow), 1.0, 1e-9) << vd.id.value();
    ++checked;
  }
  EXPECT_EQ(checked, model.affected_vds());
}

TEST(ScenarioModelTest, DepartureMasksAbsorbEverythingLayeredOnTop) {
  // A departed tenant's VDs stay at multiplier 0 even when a later burst and
  // a resize name the same tenant/VDs: lifecycle masks compose
  // multiplicatively and 0 absorbs — no resurrection, by construction.
  ScenarioSpec spec = LoadCorpus("churn.scn");
  scenario::BurstEvent burst;
  burst.tenant = 19;
  burst.start_step = 170;
  burst.duration_steps = 20;
  burst.amplitude = 8.0;
  spec.bursts.push_back(burst);
  const ScenarioModel model(TestFleet(), spec, kWindow);
  for (const Vd& vd : TestFleet().vds) {
    if (vd.user.value() != 19) {
      continue;
    }
    const CompiledVdCurve* curve = model.CurveFor(vd.id);
    ASSERT_NE(curve, nullptr) << vd.id.value();
    for (const scenario::CurvePiece& piece : curve->pieces) {
      if (piece.start_step >= 160) {
        EXPECT_EQ(piece.read_mult, 0.0) << vd.id.value() << " @" << piece.start_step;
        EXPECT_EQ(piece.write_mult, 0.0) << vd.id.value() << " @" << piece.start_step;
      }
    }
  }
}

TEST(ScenarioModelTest, BenchBuilderValidatesAgainstTheTestFleet) {
  const ScenarioSpec spec = scenario::DiurnalBurstScenario(kWindow, 48);
  const ScenarioModel model(TestFleet(), spec, kWindow);
  EXPECT_GT(model.affected_vds(), 0u);
}

// --- Calibration: diurnal -----------------------------------------------------

TEST(ScenarioCalibrationTest, DiurnalKeepsHeadlineStatsAndAddsTheDailySwing) {
  const EbsSimulation& base = BatchFor("");
  const EbsSimulation& diurnal = BatchFor("diurnal.scn");

  // Write:read delivered-byte ratio stays in the published band (paper
  // Table 2: 3.34; our stationary fleet: 3.66; the comparative-analysis
  // paper's headline is the same write dominance). The normalized curve
  // must not move the fleet out of band.
  const double read = diurnal.workload().TotalDeliveredBytes(OpType::kRead);
  const double write = diurnal.workload().TotalDeliveredBytes(OpType::kWrite);
  EXPECT_GT(write / read, 2.0);
  EXPECT_LT(write / read, 6.0);

  // Volume conservation: the unit-mean curve redistributes offered bytes
  // within the window; totals move only by the (small) covariance between
  // the baseline's own temporal profile and the curve.
  const std::vector<double> base_steps = FleetStepBytes(base);
  const std::vector<double> diurnal_steps = FleetStepBytes(diurnal);
  const double base_total = Sum(base_steps);
  const double diurnal_total = Sum(diurnal_steps);
  EXPECT_NEAR(diurnal_total / base_total, 1.0, 0.15);

  // The curve makes the fleet visibly time-varying: aggregate per-step CoV
  // strictly above the stationary baseline's.
  EXPECT_GT(NormalizedCoV(diurnal_steps), NormalizedCoV(base_steps));

  // Peak/trough swing: phases 1.6 vs 0.55 apply to every tenant, so the
  // baseline-relative swing ratio is the curve's own 1.6/0.55 up to float
  // rounding. Peak phase steps: [60,80)+[180,200); trough: [0,20)+[120,140).
  const auto window_sum = [](const std::vector<double>& steps, size_t a, size_t b) {
    double total = 0.0;
    for (size_t t = a; t < b; ++t) {
      total += steps[t];
    }
    return total;
  };
  const double peak_gain = (window_sum(diurnal_steps, 60, 80) + window_sum(diurnal_steps, 180, 200)) /
                           (window_sum(base_steps, 60, 80) + window_sum(base_steps, 180, 200));
  const double trough_gain = (window_sum(diurnal_steps, 0, 20) + window_sum(diurnal_steps, 120, 140)) /
                             (window_sum(base_steps, 0, 20) + window_sum(base_steps, 120, 140));
  EXPECT_NEAR(peak_gain / trough_gain, 1.6 / 0.55, 1e-6);

  // "Skewness is here to stay": per-period (quarter-window) VM-level read
  // skew stays extreme under diurnal modulation — the top 20% of VMs carry
  // the overwhelming share of read traffic in every period (paper Table 3:
  // VM 20%-CCR ~0.9+; EXPERIMENTS.md: fleet 20%-CCR read > 0.8).
  const std::vector<RwSeries>& vm_series = diurnal.VmSeries();
  for (size_t quarter = 0; quarter < 4; ++quarter) {
    std::vector<double> totals;
    totals.reserve(vm_series.size());
    for (const RwSeries& vm : vm_series) {
      double sum = 0.0;
      for (size_t t = quarter * 60; t < (quarter + 1) * 60; ++t) {
        sum += vm.read_bytes[t];
      }
      totals.push_back(sum);
    }
    EXPECT_GT(Ccr(totals, 0.20), 0.8) << "quarter " << quarter;
  }
}

// --- Calibration: flash crowd -------------------------------------------------

TEST(ScenarioCalibrationTest, FlashCrowdHitsItsAmplitudeAndStaysTenantLocal) {
  const EbsSimulation& base = BatchFor("");
  const EbsSimulation& crowd = BatchFor("flash_crowd.scn");

  // Tenant 8's read burst: every VD's offered read series scales by exactly
  // amplitude 6 inside [60,84) and is bit-identical outside; writes are
  // bit-identical throughout (op=read). The per-step equality is exact
  // because the burst multiplies the same precomputed rate series.
  size_t amplified_vds = 0;
  for (const Vd& vd : crowd.fleet().vds) {
    const RwSeries& b = base.workload().offered_vd[vd.id.value()];
    const RwSeries& c = crowd.workload().offered_vd[vd.id.value()];
    if (vd.user.value() == 8) {
      double burst_read = 0.0;
      for (size_t t = 0; t < kWindow; ++t) {
        if (t >= 60 && t < 84) {
          EXPECT_EQ(c.read_bytes[t], b.read_bytes[t] * 6.0) << vd.id.value() << " @" << t;
          burst_read += b.read_bytes[t];
        } else {
          EXPECT_EQ(c.read_bytes[t], b.read_bytes[t]) << vd.id.value() << " @" << t;
        }
        EXPECT_EQ(c.write_bytes[t], b.write_bytes[t]) << vd.id.value() << " @" << t;
      }
      if (burst_read > 0.0) {
        ++amplified_vds;
      }
    } else if (vd.user.value() == 26) {
      // Tenant 26's burst amplifies both ops by 4 in [150,174).
      for (size_t t = 150; t < 174; ++t) {
        EXPECT_EQ(c.read_bytes[t], b.read_bytes[t] * 4.0) << vd.id.value() << " @" << t;
        EXPECT_EQ(c.write_bytes[t], b.write_bytes[t] * 4.0) << vd.id.value() << " @" << t;
      }
    }
  }
  // The within-tenant correlation claim is non-vacuous: the burst window
  // catches several of tenant 8's VDs simultaneously.
  EXPECT_GE(amplified_vds, 2u);

  // Headline amplitude at the tenant level: offered read bytes in-window
  // amplify by the declared 6x.
  const double base_burst = TenantOfferedBytes(base, 8, OpType::kRead, 60, 84);
  const double crowd_burst = TenantOfferedBytes(crowd, 8, OpType::kRead, 60, 84);
  ASSERT_GT(base_burst, 0.0);
  EXPECT_NEAR(crowd_burst / base_burst, 6.0, 1e-9);

  // Independence across tenants: every record of every untouched tenant is
  // byte-identical to the stationary run (bursts name exactly one tenant).
  std::vector<TraceRecord> base_rest;
  std::vector<TraceRecord> crowd_rest;
  for (const TraceRecord& r : base.traces().records) {
    if (r.user.value() != 8 && r.user.value() != 26) {
      base_rest.push_back(r);
    }
  }
  for (const TraceRecord& r : crowd.traces().records) {
    if (r.user.value() != 8 && r.user.value() != 26) {
      crowd_rest.push_back(r);
    }
  }
  EXPECT_EQ(Fingerprint(crowd_rest), Fingerprint(base_rest));
}

// --- Calibration: churn -------------------------------------------------------

TEST(ScenarioCalibrationTest, ChurnGrowsAndShrinksTheFleetOnSchedule) {
  const EbsSimulation& base = BatchFor("");
  const EbsSimulation& churn = BatchFor("churn.scn");

  // Tenant 5 arrives at step 80: silent before, active after.
  EXPECT_EQ(TenantOfferedBytes(churn, 5, OpType::kRead, 0, 80), 0.0);
  EXPECT_EQ(TenantOfferedBytes(churn, 5, OpType::kWrite, 0, 80), 0.0);
  EXPECT_GT(TenantOfferedBytes(churn, 5, OpType::kWrite, 80, kWindow), 0.0);
  // Tenant 19 departs at step 160: active before, silent after.
  EXPECT_GT(TenantOfferedBytes(churn, 19, OpType::kWrite, 0, 160), 0.0);
  EXPECT_EQ(TenantOfferedBytes(churn, 19, OpType::kRead, 160, kWindow), 0.0);
  EXPECT_EQ(TenantOfferedBytes(churn, 19, OpType::kWrite, 160, kWindow), 0.0);

  // The same boundaries hold in the sampled traces.
  for (const TraceRecord& r : churn.traces().records) {
    if (r.user.value() == 5) {
      EXPECT_GE(r.timestamp, 80.0);
    }
    if (r.user.value() == 19) {
      EXPECT_LT(r.timestamp, 160.0);
    }
  }
  EXPECT_FALSE(TenantRecords(churn.traces().records, 5).empty());
  EXPECT_FALSE(TenantRecords(churn.traces().records, 19).empty());

  // Every other tenant is bit-identical to the stationary run.
  std::vector<TraceRecord> base_rest;
  std::vector<TraceRecord> churn_rest;
  for (const TraceRecord& r : base.traces().records) {
    if (r.user.value() != 5 && r.user.value() != 19) {
      base_rest.push_back(r);
    }
  }
  for (const TraceRecord& r : churn.traces().records) {
    if (r.user.value() != 5 && r.user.value() != 19) {
      churn_rest.push_back(r);
    }
  }
  EXPECT_EQ(Fingerprint(churn_rest), Fingerprint(base_rest));
}

TEST(ScenarioPropertyTest, DepartedTenantNeverResurrectsUnderLayeredEffects) {
  // Generation-level no-resurrection: layer a big burst and a VD resize on
  // the departed tenant after its departure — output must still be silent.
  SimulationConfig config = ScenarioTestConfig();
  config.workload.scenario = LoadCorpus("churn.scn");
  scenario::BurstEvent burst;
  burst.tenant = 19;
  burst.start_step = 170;
  burst.duration_steps = 20;
  burst.amplitude = 8.0;
  config.workload.scenario.bursts.push_back(burst);
  scenario::VdResize resize;
  for (const Vd& vd : TestFleet().vds) {
    if (vd.user.value() == 19) {
      resize.vd = vd.id.value();
      break;
    }
  }
  resize.step = 165;
  resize.factor = 3.0;
  config.workload.scenario.resizes.push_back(resize);

  const EbsSimulation sim(config);
  EXPECT_EQ(TenantOfferedBytes(sim, 19, OpType::kRead, 160, kWindow), 0.0);
  EXPECT_EQ(TenantOfferedBytes(sim, 19, OpType::kWrite, 160, kWindow), 0.0);
  for (const TraceRecord& r : sim.traces().records) {
    if (r.user.value() == 19) {
      EXPECT_LT(r.timestamp, 160.0);
    }
  }
}

// --- Calibration: snapshot scan / resize / migration --------------------------

TEST(ScenarioCalibrationTest, SnapshotScanResizeAndMigrationHitTheirTargets) {
  const EbsSimulation& base = BatchFor("");
  const EbsSimulation& scan = BatchFor("snapshot_scan.scn");

  // Snapshot on vd 19: reads 4x inside [60,100) — exact per step — writes
  // bit-identical everywhere (the scan is read-only).
  const RwSeries& b19 = base.workload().offered_vd[19];
  const RwSeries& s19 = scan.workload().offered_vd[19];
  double scan_base_read = 0.0;
  for (size_t t = 0; t < kWindow; ++t) {
    if (t >= 60 && t < 100) {
      EXPECT_EQ(s19.read_bytes[t], b19.read_bytes[t] * 4.0) << t;
      scan_base_read += b19.read_bytes[t];
    } else {
      EXPECT_EQ(s19.read_bytes[t], b19.read_bytes[t]) << t;
    }
    EXPECT_EQ(s19.write_bytes[t], b19.write_bytes[t]) << t;
  }
  ASSERT_GT(scan_base_read, 0.0);  // the scan demonstrably bites

  // Resize on vd 26: both ops exactly 2x from step 120 on.
  const RwSeries& b26 = base.workload().offered_vd[26];
  const RwSeries& s26 = scan.workload().offered_vd[26];
  for (size_t t = 0; t < kWindow; ++t) {
    const double factor = t >= 120 ? 2.0 : 1.0;
    EXPECT_EQ(s26.read_bytes[t], b26.read_bytes[t] * factor) << t;
    EXPECT_EQ(s26.write_bytes[t], b26.write_bytes[t] * factor) << t;
  }

  // Migration blackout on vm 2: its VDs are silent during [100,104) and no
  // trace of the VM lands inside the blackout.
  for (const VdId vd_id : scan.fleet().vms[2].vds) {
    const RwSeries& series = scan.workload().offered_vd[vd_id.value()];
    for (size_t t = 100; t < 104; ++t) {
      EXPECT_EQ(series.read_bytes[t], 0.0) << vd_id.value() << " @" << t;
      EXPECT_EQ(series.write_bytes[t], 0.0) << vd_id.value() << " @" << t;
    }
  }
  for (const TraceRecord& r : scan.traces().records) {
    if (r.vm.value() == 2) {
      EXPECT_TRUE(r.timestamp < 100.0 || r.timestamp >= 104.0) << r.timestamp;
    }
  }
}

// --- Determinism: goldens, engines, workers, identity -------------------------

// Golden CanonicalFingerprint per committed scenario file (trace_store_test
// golden-corpus style): any change to the corpus, the parser's
// interpretation, the model's compilation, or the generator's consumption
// order shows up as a drift here.
struct GoldenEntry {
  const char* corpus;
  uint64_t fingerprint;
};
constexpr GoldenEntry kGolden[] = {
    {"diurnal.scn", 0x7ba56e722086c20dULL},
    {"flash_crowd.scn", 0x47e8b790b80663ceULL},
    {"churn.scn", 0xfd2205f7a1927389ULL},
    {"snapshot_scan.scn", 0x2cf0b08d00885f0dULL},
    {"identity.scn", 0xe26e1b8b57fb346fULL},
};

TEST(ScenarioDeterminismTest, CommittedScenariosMatchGoldenFingerprints) {
  for (const GoldenEntry& entry : kGolden) {
    const uint64_t print = CanonicalFingerprint(BatchFor(entry.corpus).traces().records);
    EXPECT_EQ(print, entry.fingerprint) << entry.corpus << std::hex << " actual=0x" << print;
  }
}

TEST(ScenarioDeterminismTest, BatchAndStreamingAgreeAtEveryWorkerCount) {
  for (const char* name : kCorpus) {
    SimulationConfig config = ScenarioTestConfig();
    config.workload.scenario = LoadCorpus(name);
    const uint64_t batch_print = Fingerprint(BatchFor(name).traces().records);
    for (const size_t workers : {1u, 2u, 4u}) {
      StreamingSimulation stream(config, {.worker_threads = workers});
      stream.Run();
      EXPECT_EQ(Fingerprint(stream.traces().records), batch_print)
          << name << " @ " << workers << " workers";
    }
  }
}

TEST(ScenarioDeterminismTest, IdentityScenarioIsBitIdenticalToTheSeed) {
  const EbsSimulation& seed = BatchFor("");
  const EbsSimulation& identity = BatchFor("identity.scn");

  // Traces byte-identical...
  EXPECT_EQ(Fingerprint(identity.traces().records), Fingerprint(seed.traces().records));
  // ...and the full-scale metric dataset too (bitwise, not approximately).
  ASSERT_EQ(identity.metrics().qp_series.size(), seed.metrics().qp_series.size());
  for (size_t q = 0; q < seed.metrics().qp_series.size(); ++q) {
    for (size_t t = 0; t < kWindow; ++t) {
      ASSERT_EQ(identity.metrics().qp_series[q].read_bytes[t],
                seed.metrics().qp_series[q].read_bytes[t]);
      ASSERT_EQ(identity.metrics().qp_series[q].write_bytes[t],
                seed.metrics().qp_series[q].write_bytes[t]);
    }
  }
}

// --- Property: conservation under composed scenario + faults ------------------

TEST(ScenarioPropertyTest, ScenarioComposesWithFaultSchedulesDeterministically) {
  // Scenario modulates offered rates; faults transform the sampled records.
  // Composed, batch and streaming must still agree bit for bit — the layers
  // were designed to commute with the engine split.
  SimulationConfig config = ScenarioTestConfig();
  config.workload.scenario = LoadCorpus("diurnal.scn");
  config.workload.faults =
      CrashHeavySchedule(TestFleet(), config.workload.window_steps, /*seed=*/2026);

  const EbsSimulation batch(config);
  EXPECT_GT(batch.fault_stats().degraded_steps, 0u);
  const uint64_t batch_print = Fingerprint(batch.traces().records);
  for (const size_t workers : {1u, 2u, 4u}) {
    StreamingSimulation stream(config, {.worker_threads = workers, .queue_capacity = 3});
    stream.Run();
    EXPECT_EQ(Fingerprint(stream.traces().records), batch_print)
        << workers << " workers";
  }
}

}  // namespace
}  // namespace ebs
