// batch-scale: cold in-process checks of fresh-seed dbgen-100k groups,
// PrepareGroup then the sharded DIME+ engine at nproc threads. No server.
// The oracle is a serial RunDimePlus run per group (RunDime is quadratic
// at this size), computed before the timed loop.

#include <malloc.h>
#include <time.h>

#include <cstdio>
#include <memory>

#include "perfbench/src/bench.h"
#include "perfbench/src/inputs.h"
#include "perfbench/src/layers.h"
#include "perfbench/src/trace.h"
#include "src/core/dime_plus.h"
#include "src/datagen/dbgen_gen.h"
#include "src/exec/pool.h"
#include "src/exec/sharded_dime.h"

namespace perfbench {
namespace {

/// Distinct groups a run cycles through. Each check prepares its group
/// from scratch, so every check is cold; the oracle runs once per group.
constexpr size_t kBatchGroups = 2;

int64_t ProcessCpuNs() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

}  // namespace

Outcome RunBatchScale(const Options& options) {
  Outcome out;
  const std::vector<dime::PositiveRule> pos = dime::DbgenPositiveRules();
  const std::vector<dime::NegativeRule> neg = dime::DbgenNegativeRules();
  const dime::DimeContext context;
  std::vector<dime::Group> groups;
  std::vector<dime::DimeResult> oracle;
  for (size_t g = 0; g < kBatchGroups; ++g) {
    groups.push_back(dime::GenerateDbgenGroup(
        dime::DbgenPreset100k(options.seed * 1000003 + g + 1)));
    dime::PreparedGroup pg = dime::PrepareGroup(groups[g], pos, neg, context);
    oracle.push_back(dime::RunDimePlus(pg, pos, neg));
  }
  dime::exec::PoolOptions po;
  po.num_threads = options.nproc;
  dime::exec::WorkStealingPool pool(po);

  // The generator and the oracle runs above reached their own peak; only
  // the timed checks may set the reported one. The heap first returns what
  // it holds unused, so their leftovers do not count either.
  ::malloc_trim(0);
  if (!ResetPeakRss("self")) {
    out.invalid = "cannot reset the peak resident memory (/proc/self/clear_refs)";
    return out;
  }
  Tracer tracer(options.trace);
  Tracer untraced(false);
  EngineTally tally;
  Samples check_ms, cpu_ms, prepare_s, traced_ms, untraced_ms;
  const CpuTicks ticks_before = ReadCpuTicks();
  const int64_t start = NowNs();
  const int64_t budget = static_cast<int64_t>(options.seconds) * 1000000000;
  for (size_t i = 0; NowNs() - start < budget || i < 2; ++i) {
    const dime::Group& group = groups[i % kBatchGroups];
    // Traced runs alternate untraced and traced checks, so the difference
    // of the two medians is the tracing overhead.
    Tracer* t = options.trace && i % 2 == 1 ? &tracer : &untraced;
    Tracer::Scope check(t, "check", "", i);
    const int64_t cpu_start = ProcessCpuNs();
    Tracer::Scope prep(t, "core.prepare", "core", i);
    dime::PreparedGroup pg = dime::PrepareGroup(group, pos, neg, context);
    int64_t prep_ns = prep.End();
    dime::exec::ShardedOptions sharded;
    sharded.pool = &pool;
    Tracer::Scope engine(t, "exec.sharded", "exec", i);
    dime::DimeResult result = dime::exec::RunDimePlusSharded(pg, pos, neg, sharded);
    int64_t engine_ns = engine.End();
    cpu_ms.Add(NsToMs(ProcessCpuNs() - cpu_start));
    double wall_ms = NsToMs(prep_ns + engine_ns);
    check_ms.Add(wall_ms);
    prepare_s.Add(static_cast<double>(prep_ns) / 1e9);
    ++out.attempted;
    if (!SameDecision(result, oracle[i % kBatchGroups])) {
      ++out.failed;
      ++out.mismatched;
    }
    if (!options.trace) continue;
    (t == &tracer ? traced_ms : untraced_ms).Add(wall_ms);

    // Per-layer measurements on the same prepared group.
    tally.prepare_ns += prep_ns;
    tally.entities += group.size();
    tally.sharded_ms.Add(NsToMs(engine_ns));
    dime::exec::ShardedOptions inline_opts;
    inline_opts.num_threads = 1;
    Tracer::Scope sh1(t, "exec.sharded_1t", "", i);
    (void)dime::exec::RunDimePlusSharded(pg, pos, neg, inline_opts);
    tally.sharded_1t_ms.Add(NsToMs(sh1.End()));
    Tracer::Scope step1(t, "core.step1", "", i);
    (void)dime::RunDimePlus(pg, pos, {});
    tally.step1_ms.Add(NsToMs(step1.End()));
    Tracer::Scope full(t, "core.engine", "", i);
    dime::DimeResult serial = dime::RunDimePlus(pg, pos, neg);
    tally.full_ms.Add(NsToMs(full.End()));
    tally.AddStats(serial.stats, group.size());
  }

  if (!options.trace) {
    double tail_p = 0;
    out.result = {
        {"check_cpu_ms", cpu_ms.Median(), "ms"},
        {"setup_s", prepare_s.Median(), "s"},
        {"peak_rss_mb", PeakRssMb("self"), "MB"},
    };
    out.report = {
        {"batch_check_s", check_ms.Median() / 1e3, "s"},
        {"check_p50_ms", check_ms.Median(), "ms"},
        // Fewer than 1000 checks fit a run: the tail is the slowest check.
        {"check_p99_ms", check_ms.TailPercentile(0.99, 10, &tail_p), "ms"},
        {"max_rate_qps", 1000.0 / check_ms.Mean(), "req/s"},
        {"check_samples", static_cast<double>(check_ms.size()), "count"},
        {"check_tail_percentile", tail_p * 100, "%"},
        {"entities_per_check", static_cast<double>(groups[0].size()), "count"},
        {"threads", static_cast<double>(options.nproc), "count"},
        {"host_steal_share", StealShare(ticks_before, ReadCpuTicks()), "ratio"},
    };
    return out;
  }

  tally.AppendMetrics(options.nproc, &out.result);
  double base = untraced_ms.Median();
  out.result.push_back({"trace.overhead_share",
                        base > 0 ? (traced_ms.Median() - base) / base : 0.0,
                        "ratio"});
  out.report = {
      {"traced_checks", static_cast<double>(traced_ms.size()), "count"},
      {"untraced_checks", static_cast<double>(untraced_ms.size()), "count"},
  };
  AppendLayerShares(options.workload, tracer.SelfTimeByLayer(), &out.report,
                    &out.notes);
  out.notes.push_back(
      "note: batch-scale has no server; the server.* and store.* layer "
      "metrics do not apply to it");
  if (!options.trace_path.empty() && !tracer.WriteJsonLines(options.trace_path)) {
    out.notes.push_back("warning: could not write spans to " + options.trace_path);
  }
  return out;
}

}  // namespace perfbench
