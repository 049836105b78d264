// serve_mix: open-loop Poisson traffic from one generator thread into one
// serve::Server (nproc - 1 workers, reject-on-full admission), the mix of
// generate_workload defaults plus telemetry and dist-pipeline jobs, every
// compute shadow-checked at rate 0.25.  Two fixed-rate steps: `light`
// (about half the capacity of the reference host) for latency, and
// `overload` (about 1.5×) for goodput within the latency limit.
//
// Each request is timed from when it was due, not from when the generator
// got round to submitting it; a run whose generator fell behind by more
// than the latency limit is invalid.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "spacefts/backend/backend.hpp"
#include "spacefts/common/random.hpp"
#include "spacefts/datagen/ngst.hpp"
#include "spacefts/datagen/telemetry.hpp"
#include "spacefts/dist/pipeline.hpp"
#include "spacefts/edac/crc32.hpp"
#include "spacefts/ingest/guard.hpp"
#include "spacefts/serve/job.hpp"
#include "spacefts/serve/server.hpp"
#include "spacefts/serve/workload.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace backend = spacefts::backend;
namespace common = spacefts::common;
namespace serve = spacefts::serve;

// Offered rates, fixed for every commit.  A 3-worker server on the 4-core
// reference host drains this mix at anywhere from 1.3k to 3.5k requests/s,
// depending on how hard neighbours load the host's memory system.  The
// light rate stays near half of the low end, so the light step never nears
// saturation; the overload rate stays well above the high end.
constexpr double kLightRate = 700.0;
constexpr double kOverloadRate = 6600.0;
/// Due-to-completion limit a request must meet to count as goodput.
constexpr double kLatencyLimitMs = 50.0;
/// Steps are scored per two-second segment of the offered schedule and the
/// median segment is reported, so one host stall moves one segment only.
constexpr double kSegmentSeconds = 2.0;
/// Shares of --seconds given to the light and the overload step.
constexpr double kLightShare = 0.6;
constexpr double kOverloadShare = 0.4;
constexpr std::size_t kSetupRepeats = 3;
constexpr std::size_t kWarmupRequests = 64;
/// Requests of each kind re-run stage by stage in the traced offline pass.
constexpr std::size_t kStagedPerKind = 24;
constexpr double kShadowRate = 0.25;

// The serve job's documented sub-stream index for the dist pipeline.
constexpr std::uint64_t kStreamPipeline = 2;

using Items = std::vector<serve::WorkloadItem>;

/// Times every preprocessing call per request (summed over epochs), for
/// core.voter_ms.  Forwards the inner backend's name, so results are
/// unchanged by the decoration.
class TimedBackend final : public backend::Backend {
 public:
  explicit TimedBackend(std::shared_ptr<backend::Backend> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] const char* name() const noexcept override {
    return inner_->name();
  }

  spacefts::core::AlgoNgstReport preprocess(
      common::TemporalStack<std::uint16_t>& stack,
      const spacefts::core::AlgoNgstConfig& config,
      const backend::ComputeMeta& meta,
      backend::ComputeOutcome* outcome) override {
    const auto t0 = Clock::now();
    auto report = inner_->preprocess(stack, config, meta, outcome);
    add(meta.request_id, t0);
    return report;
  }

  spacefts::core::AlgoOtisReport preprocess(
      common::Cube<float>& radiance, std::span<const double> wavelengths_um,
      const spacefts::core::AlgoOtisConfig& config,
      const backend::ComputeMeta& meta,
      backend::ComputeOutcome* outcome) override {
    const auto t0 = Clock::now();
    auto report =
        inner_->preprocess(radiance, wavelengths_um, config, meta, outcome);
    add(meta.request_id, t0);
    return report;
  }

  [[nodiscard]] std::unordered_map<std::uint64_t, double> voter_ms() const {
    std::lock_guard lock(mutex_);
    return voter_ms_;
  }

 private:
  void add(std::uint64_t id, Clock::time_point t0) {
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    std::lock_guard lock(mutex_);
    voter_ms_[id] += ms;
  }

  std::shared_ptr<backend::Backend> inner_;
  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, double> voter_ms_;
};

std::shared_ptr<backend::ShadowBackend> make_shadow() {
  backend::ShadowConfig config;
  config.shadow_rate = kShadowRate;
  return std::make_shared<backend::ShadowBackend>(
      std::make_shared<backend::CpuBackend>(),
      std::make_shared<backend::CpuBackend>(), config);
}

serve::ExecContext make_context(std::shared_ptr<backend::Backend> compute) {
  serve::ExecContext ctx;
  ctx.algo_threads = 1;
  ctx.backend = std::move(compute);
  return ctx;
}

Items make_items(std::uint64_t seed, std::uint64_t step, double rate,
                 double seconds) {
  serve::WorkloadSpec spec;
  spec.requests = std::max<std::size_t>(
      1, static_cast<std::size_t>(rate * seconds + 0.5));
  spec.rate_hz = rate;
  spec.seed = common::derive_stream_seed(seed, step, 0);
  spec.telemetry_fraction = 0.15;
  spec.pipeline_fraction = 0.1;
  spec.gamma0 = 1e-3;
  spec.link_loss = 0.05;
  return serve::generate_workload(spec);
}

serve::ServerConfig server_config(std::shared_ptr<backend::Backend> compute) {
  serve::ServerConfig config;
  config.workers = std::max<std::size_t>(1, host_threads() - 1);
  config.admission_timeout_ms = 0.0;  // reject-on-full
  config.exec = make_context(std::move(compute));
  return config;
}

/// What one open-loop step measured, indexed by request id.
struct Step {
  std::vector<serve::RequestResult> results;
  std::vector<Clock::time_point> due;
  std::vector<Clock::time_point> submitted;
  std::vector<double> late_ms;
  std::vector<double> admit_us;
  std::vector<double> e2e_ms;  ///< from due; non-ok requests read span_ms
  std::vector<std::size_t> segment;  ///< schedule segment of each request
  std::size_t segments = 0;
  double span_s = 0.0;  ///< the offered schedule's length

  [[nodiscard]] bool ok(std::size_t id) const {
    return results[id].status == serve::ServeStatus::kOk;
  }

  /// Median over segments of \p score(ids of the segment).
  template <typename Score>
  [[nodiscard]] double segment_median(Score score) const {
    std::vector<std::vector<std::size_t>> ids(segments);
    for (std::size_t id = 0; id < segment.size(); ++id) {
      ids[segment[id]].push_back(id);
    }
    std::vector<double> values;
    for (const auto& members : ids) {
      if (!members.empty()) values.push_back(score(members));
    }
    return median(std::move(values));
  }
};

Step run_step(const Items& items, std::shared_ptr<backend::Backend> compute,
              const char* name, Report& report) {
  const std::size_t n = items.size();
  Step step;
  step.due.resize(n);
  step.submitted.resize(n);
  step.late_ms.resize(n);
  step.admit_us.resize(n);
  step.span_s = items.back().arrival_s;

  std::vector<serve::RequestResult> results;
  {
    serve::Server server(server_config(std::move(compute)));
    const auto start = Clock::now() + std::chrono::milliseconds(2);
    for (std::size_t k = 0; k < n; ++k) {
      const auto due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(items[k].arrival_s));
      if (Clock::now() < due) std::this_thread::sleep_until(due);
      const auto at = Clock::now();
      (void)server.submit(items[k].request);
      const auto after = Clock::now();
      step.due[k] = due;
      step.submitted[k] = at;
      step.late_ms[k] =
          std::chrono::duration<double, std::milli>(at - due).count();
      step.admit_us[k] =
          std::chrono::duration<double, std::micro>(after - at).count();
    }
    server.wait_idle();
    server.drain();
    results = server.take_results();
  }

  // Exactly one result per submission.
  const std::string tag = std::string(name) + ": ";
  std::vector<std::size_t> seen(n, 0);
  step.results.resize(n);
  for (auto& r : results) {
    if (!report.expect(r.id < n, tag + "result for unknown request " +
                                     std::to_string(r.id))) {
      continue;
    }
    ++seen[r.id];
    step.results[r.id] = std::move(r);
  }
  for (std::size_t id = 0; id < n; ++id) {
    report.expect(seen[id] == 1, tag + "request " + std::to_string(id) +
                                     " yielded " + std::to_string(seen[id]) +
                                     " results");
  }

  const double cap_ms = step.span_s * 1e3;
  step.segments = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(step.span_s / kSegmentSeconds)));
  step.e2e_ms.resize(n);
  step.segment.resize(n);
  for (std::size_t id = 0; id < n; ++id) {
    const auto& r = step.results[id];
    report.expect(seen[id] != 1 || r.status != serve::ServeStatus::kFailed,
                  tag + "request " + std::to_string(id) + " failed: " + r.error);
    // A request that never completed counts as over any limit.
    step.e2e_ms[id] = step.ok(id) ? step.late_ms[id] + r.e2e_ms : cap_ms;
    step.segment[id] = std::min(
        step.segments - 1,
        static_cast<std::size_t>(items[id].arrival_s / kSegmentSeconds));
  }
  return step;
}

/// The light step's deterministic payload must equal offline execute_job
/// over the same requests; checked per completed request, in parallel.
void check_payload(const Items& items, const Step& light, Report& report) {
  const auto shadow = make_shadow();
  const serve::ExecContext ctx = make_context(shadow);
  std::vector<std::string> offline(items.size());
  std::vector<std::thread> lanes;
  const std::size_t lane_count = host_threads();
  for (std::size_t lane = 0; lane < lane_count; ++lane) {
    lanes.emplace_back([&, lane] {
      for (std::size_t k = lane; k < items.size(); k += lane_count) {
        if (light.results[k].status != serve::ServeStatus::kOk) continue;
        offline[k] = serve::results_to_jsonl(
            {serve::execute_job(items[k].request, false, ctx)});
      }
    });
  }
  for (auto& t : lanes) t.join();
  for (std::size_t k = 0; k < items.size(); ++k) {
    if (light.results[k].status != serve::ServeStatus::kOk) continue;
    report.expect(serve::results_to_jsonl({light.results[k]}) == offline[k],
                  "light: request " + std::to_string(k) +
                      " payload differs from offline execute_job");
  }
  report.expect(shadow->health().mismatches == 0,
                "offline shadow guard saw mismatches");
}

const char* kind_name(const serve::JobSpec& job) {
  if (job.run_pipeline) return "pipeline";
  return serve::to_string(job.kind);
}

// Operation ids of the traced serve spans: step in the high bits.
constexpr std::uint64_t kLightOps = 1ULL << 32;
constexpr std::uint64_t kStagedOps = 3ULL << 32;
constexpr std::uint64_t kJobOps = 4ULL << 32;

/// Spans of one request's life in a step: due → admit, queue wait and
/// service, reconstructed from the generator's clocks and the result's
/// measured durations.
void record_request_spans(Recorder& recorder, const Step& step,
                          std::uint64_t ops) {
  for (std::size_t id = 0; id < step.results.size(); ++id) {
    const auto& r = step.results[id];
    const std::uint64_t op = ops | id;
    const Nanos due = recorder.at(step.due[id]);
    const Nanos at = recorder.at(step.submitted[id]);
    const auto ms = [](double v) { return static_cast<Nanos>(v * 1e6); };
    const std::int32_t root = recorder.add(
        {"serve.request", due, due + ms(step.e2e_ms[id]), kNoParent, op});
    recorder.add({"serve.admit", at,
                  at + static_cast<Nanos>(step.admit_us[id] * 1e3), root, op});
    if (r.status != serve::ServeStatus::kOk) continue;
    recorder.add({"serve.queue_wait", at, at + ms(r.queue_wait_ms), root, op});
    const Nanos done = at + ms(r.e2e_ms);
    recorder.add({"serve.service", done - ms(r.service_ms), done, root, op});
  }
}

/// Offline staged pass: a few requests of each kind re-run through the
/// public parts of the serve job (datagen → pack → ingest guard with the
/// voter behind the executor hook → dist pipeline), each part a span, plus
/// the whole execute_job timed on its own.  Each staged checksum must equal
/// execute_job's.
void staged_pass(const Items& items, Recorder& recorder, Report& report) {
  const auto shadow = make_shadow();
  const serve::ExecContext ctx = make_context(shadow);
  std::unordered_map<std::string, std::size_t> taken;
  std::vector<std::uint64_t> staged_ops;
  std::unordered_map<std::string, std::vector<std::uint64_t>> job_ops;

  for (const auto& item : items) {
    const serve::Request& request = item.request;
    const serve::JobSpec& job = request.job;
    const std::string kind = kind_name(job);
    if (taken[kind]++ >= kStagedPerKind) continue;

    serve::RequestResult whole;
    {
      const ScopedSpan span(recorder, "serve.job", kNoParent,
                            kJobOps | request.id);
      whole = serve::execute_job(request, false, ctx);
    }
    job_ops[kind].push_back(kJobOps | request.id);
    report.attempt();
    if (job.kind == serve::JobKind::kOtis) continue;

    const std::uint64_t op = kStagedOps | request.id;
    const std::int32_t root = recorder.open("serve.staged", kNoParent, op);
    common::TemporalStack<std::uint16_t> stack;
    {
      const ScopedSpan span(recorder, "datagen.busy", root, op);
      if (job.kind == serve::JobKind::kTelemetry) {
        spacefts::datagen::TelemetrySimulator sim(job.seed);
        spacefts::datagen::TelemetryParams params;
        params.channels = job.side;
        params.samples = job.frames;
        stack = sim.stack(params);
      } else {
        spacefts::datagen::NgstSimulator sim(job.seed);
        spacefts::datagen::SceneParams scene;
        scene.width = job.side;
        scene.height = job.side;
        stack = sim.stack(job.frames, scene);
      }
    }
    std::vector<std::uint8_t> payload;
    {
      const ScopedSpan span(recorder, "ingest.pack", root, op);
      payload = spacefts::ingest::IngestGuard::pack(stack);
    }
    spacefts::ingest::IngestConfig ic;
    ic.expectation.bitpix = 16;
    ic.expectation.width = static_cast<std::int64_t>(job.side);
    ic.expectation.height = job.kind == serve::JobKind::kTelemetry
                                ? 1
                                : static_cast<std::int64_t>(job.side);
    ic.algo.lambda = job.lambda;
    ic.algo.threads = ctx.algo_threads;
    ic.algo.kernel = ctx.kernel;
    std::int32_t guard_span = kNoParent;
    ic.executor = [&](common::TemporalStack<std::uint16_t>& s,
                      const spacefts::core::AlgoNgstConfig& algo) {
      const ScopedSpan span(recorder, "core.voter", guard_span, op);
      return shadow->preprocess(s, algo, backend::ComputeMeta{request.id, 0},
                                nullptr);
    };
    spacefts::ingest::IngestResult ingested;
    {
      const ScopedSpan span(recorder, "ingest.guard", root, op);
      guard_span = span.index();
      ingested = spacefts::ingest::IngestGuard(ic).ingest(payload);
    }
    const auto voxels = ingested.stack.cube().voxels();
    std::uint32_t crc = spacefts::edac::crc32(
        {reinterpret_cast<const std::uint8_t*>(voxels.data()),
         voxels.size() * sizeof(std::uint16_t)});
    if (job.run_pipeline) {
      const ScopedSpan span(recorder, "dist.pipeline", root, op);
      spacefts::dist::PipelineConfig pc;
      pc.workers = ctx.pipeline_workers;
      pc.fragment_side = ctx.fragment_side;
      pc.gamma0 = job.gamma0;
      pc.worker_crash_prob = 0.0;
      pc.link.faults.drop_prob = job.link_loss;
      pc.link.faults.corrupt_prob = job.link_loss;
      pc.link.faults.duplicate_prob = job.link_loss / 2.0;
      pc.link.faults.delay_prob = job.link_loss;
      pc.algo.lambda = job.lambda;
      pc.algo.upsilon = ic.algo.upsilon;
      pc.algo.kernel = ctx.kernel;
      pc.threads = ctx.algo_threads;
      pc.ngst_executor = [&](common::TemporalStack<std::uint16_t>& tile,
                             const spacefts::core::AlgoNgstConfig& algo,
                             std::size_t fragment) {
        return shadow->preprocess(
            tile, algo, backend::ComputeMeta{request.id, 1 + fragment},
            nullptr);
      };
      common::Rng rng(common::derive_stream_seed(job.seed, request.id,
                                                 kStreamPipeline));
      const auto pipeline = spacefts::dist::run_pipeline(ingested.stack, pc, rng);
      const auto flux = pipeline.flux.pixels();
      crc = spacefts::edac::crc32(
          {reinterpret_cast<const std::uint8_t*>(flux.data()),
           flux.size() * sizeof(float)},
          crc);
    }
    recorder.close(root);
    staged_ops.push_back(op);
    report.expect(ingested.ok && whole.status == serve::ServeStatus::kOk &&
                      crc == whole.checksum,
                  "staged " + kind + " request " + std::to_string(request.id) +
                      ": checksum differs from execute_job");
  }

  const Ledger ledger = ledger_ms(recorder.spans());
  const auto median_of = [&](const std::vector<std::uint64_t>& ops,
                             const char* name) {
    std::vector<double> values;
    for (const std::uint64_t op : ops) {
      const auto& stages = ledger.at(op);
      const auto it = stages.find(name);
      if (it != stages.end()) values.push_back(it->second);
    }
    return std::pair{median(values), values.size()};
  };
  for (const char* kind : {"ngst", "otis", "telemetry", "pipeline"}) {
    const auto [ms, n] = median_of(job_ops[kind], "serve.job");
    report.add(std::string("serve.job_") + kind + "_ms", ms, "ms", n);
  }
  std::vector<std::uint64_t> pipeline_ops;
  for (const std::uint64_t op : staged_ops) {
    if (ledger.at(op).count("dist.pipeline")) pipeline_ops.push_back(op);
  }
  for (const auto& [metric, span, ops] :
       {std::tuple{"datagen.busy_ms", "datagen.busy", &staged_ops},
        std::tuple{"ingest.pack_ms", "ingest.pack", &staged_ops},
        std::tuple{"ingest.guard_ms", "ingest.guard", &staged_ops},
        std::tuple{"dist.pipeline_ms", "dist.pipeline", &pipeline_ops}}) {
    const auto [ms, n] = median_of(*ops, span);
    report.add(metric, ms, "ms", n);
  }
  report.expect(shadow->health().mismatches == 0,
                "staged shadow guard saw mismatches");
}

}  // namespace

Report run_serve_mix(const RunOptions& options) {
  Report report;

  // Set-up: generate both steps' traffic, start a server, and warm every
  // job kind through it.  Repeated; the median is reported.
  Items light_items;
  Items overload_items;
  std::vector<double> setup_s;
  for (std::size_t r = 0; r < kSetupRepeats; ++r) {
    const auto t0 = Clock::now();
    light_items = make_items(options.seed, 1, kLightRate,
                             kLightShare * options.seconds);
    overload_items = make_items(options.seed, 2, kOverloadRate,
                                kOverloadShare * options.seconds);
    {
      serve::Server server(server_config(make_shadow()));
      const std::size_t warm = std::min(kWarmupRequests, light_items.size());
      for (std::size_t k = 0; k < warm; ++k) {
        (void)server.submit(light_items[k].request);
        server.wait_idle();
      }
      server.drain();
    }
    setup_s.push_back(
        std::chrono::duration<double>(Clock::now() - t0).count());
  }
  report.add("setup_s", median(setup_s), "s", setup_s.size());
  report.attempt(light_items.size() + overload_items.size());

  const auto light_backend = make_shadow();
  const auto overload_backend = make_shadow();
  const auto light_timed = std::make_shared<TimedBackend>(light_backend);
  const Step light =
      options.trace ? run_step(light_items, light_timed, "light", report)
                    : run_step(light_items, light_backend, "light", report);
  const Step overload =
      run_step(overload_items, overload_backend, "overload", report);
  check_payload(light_items, light, report);
  const std::uint64_t mismatches = light_backend->health().mismatches +
                                   overload_backend->health().mismatches;
  report.expect(mismatches == 0, "serving shadow guard saw mismatches");

  const double late_p99 = std::max(percentile(light.late_ms, 99.0),
                                   percentile(overload.late_ms, 99.0));
  char text[160];
  std::snprintf(text, sizeof text,
                "run invalid: the generator ran %g ms late at p99, beyond the "
                "%g ms latency limit",
                late_p99, kLatencyLimitMs);
  report.expect(late_p99 <= kLatencyLimitMs, text);
  std::snprintf(text, sizeof text,
                "latency limit %g ms; offered light %g req/s, overload %g req/s",
                kLatencyLimitMs, kLightRate, kOverloadRate);
  report.note(text);

  if (!options.trace) {
    const auto e2e = [&light](double q) {
      return [&light, q](const std::vector<std::size_t>& ids) {
        std::vector<double> ms;
        for (const std::size_t id : ids) ms.push_back(light.e2e_ms[id]);
        return percentile(std::move(ms), q);
      };
    };
    const auto ok_frac = [](const Step& step) {
      return [&step](const std::vector<std::size_t>& ids) {
        std::size_t ok = 0;
        for (const std::size_t id : ids) ok += step.ok(id) ? 1 : 0;
        return static_cast<double>(ok) / static_cast<double>(ids.size());
      };
    };
    const auto goodput = [&overload](const std::vector<std::size_t>& ids) {
      std::size_t good = 0;
      for (const std::size_t id : ids) {
        good += overload.ok(id) && overload.e2e_ms[id] <= kLatencyLimitMs;
      }
      return static_cast<double>(good) / kSegmentSeconds;
    };
    const std::size_t per_segment =
        static_cast<std::size_t>(kLightRate * kSegmentSeconds);
    report.expect(supports_percentile(per_segment, 99.0),
                  "light segments too short to back p99");
    const std::size_t n_light = light.results.size();
    report.add("serve_e2e_ms_p50", light.segment_median(e2e(50.0)), "ms",
               n_light);
    report.add("serve_e2e_ms_p99", light.segment_median(e2e(99.0)), "ms",
               n_light);
    report.add("serve_goodput_rps", overload.segment_median(goodput), "1/s",
               overload.results.size());
    report.add("serve_ok_frac", light.segment_median(ok_frac(light)),
               "fraction", n_light);
    report.add("serve_overload_ok_frac",
               overload.segment_median(ok_frac(overload)), "fraction",
               overload.results.size());
    report.add("serve.gen_late_ms_p99", late_p99, "ms",
               light.late_ms.size() + overload.late_ms.size());
  } else {
    Recorder recorder;
    record_request_spans(recorder, light, kLightOps);
    std::vector<double> queue_ms, service_ms, voter_ms;
    double batch = 0.0;
    std::size_t shed = 0, expired = 0, failed = 0;
    const auto voter = light_timed->voter_ms();
    for (const auto& r : light.results) {
      shed += r.status == serve::ServeStatus::kShed ? 1 : 0;
      expired += r.status == serve::ServeStatus::kExpired ? 1 : 0;
      failed += r.status == serve::ServeStatus::kFailed ? 1 : 0;
      if (r.status != serve::ServeStatus::kOk) continue;
      queue_ms.push_back(r.queue_wait_ms);
      service_ms.push_back(r.service_ms);
      batch += static_cast<double>(r.batch_size);
      if (const auto it = voter.find(r.id); it != voter.end()) {
        voter_ms.push_back(it->second);
      }
    }
    const std::size_t n = light.results.size();
    report.add("serve.admit_us_p50", median(light.admit_us), "us", n);
    report.add("serve.admit_us_p99", percentile(light.admit_us, 99.0), "us", n);
    report.add("serve.queue_wait_ms_p50", median(queue_ms), "ms", queue_ms.size());
    report.add("serve.queue_wait_ms_p99", percentile(queue_ms, 99.0), "ms",
               queue_ms.size());
    report.add("serve.service_ms_p50", median(service_ms), "ms",
               service_ms.size());
    report.add("serve.service_ms_p99", percentile(service_ms, 99.0), "ms",
               service_ms.size());
    report.add("serve.batch_size_mean",
               queue_ms.empty() ? 0.0 : batch / static_cast<double>(queue_ms.size()),
               "count", queue_ms.size());
    report.add("serve.shed", static_cast<double>(shed), "count", n);
    report.add("serve.expired", static_cast<double>(expired), "count", n);
    report.add("serve.failed", static_cast<double>(failed), "count", n);
    report.add("serve.gen_late_ms_p99", late_p99, "ms",
               light.late_ms.size() + overload.late_ms.size());
    report.add("core.voter_ms", median(voter_ms), "ms", voter_ms.size());
    report.add("backend.shadowed",
               static_cast<double>(light_backend->health().sampled), "count",
               n);
    report.add("backend.mismatches", static_cast<double>(mismatches), "count",
               n);
    staged_pass(light_items, recorder, report);
    std::ofstream spans(options.out_dir + "/spans-" + options.workload + "-" +
                        std::to_string(options.seed) + ".csv");
    recorder.write_csv(spans);
  }
  report.add("peak_rss_mb", peak_rss_mb(), "MiB", 1);
  return report;
}

}  // namespace perfbench
