// sleepwalk: a C++20 reproduction of "When the Internet Sleeps:
// Correlating Diurnal Networks With External Factors" (Quan, Heidemann,
// Pradkin — ACM IMC 2014).
//
// Umbrella header pulling in the full public API. Downstream users link
// against the `sleepwalk::sleepwalk` CMake target. See README.md for a
// quickstart and DESIGN.md for the architecture and experiment index.
#ifndef SLEEPWALK_SLEEPWALK_H_
#define SLEEPWALK_SLEEPWALK_H_

// Core contribution: availability estimation + diurnal detection.
#include "sleepwalk/core/agreement.h"
#include "sleepwalk/core/availability.h"
#include "sleepwalk/core/block_analyzer.h"
#include "sleepwalk/core/daily_profile.h"
#include "sleepwalk/core/dataset.h"
#include "sleepwalk/core/dataset_columnar.h"
#include "sleepwalk/core/diurnal.h"
#include "sleepwalk/core/checkpoint.h"
#include "sleepwalk/core/parallel_executor.h"
#include "sleepwalk/core/pipeline.h"
#include "sleepwalk/core/status.h"
#include "sleepwalk/core/supervisor.h"

// Probing substrate (Trinocular).
#include "sleepwalk/probing/belief.h"
#include "sleepwalk/probing/prober.h"
#include "sleepwalk/probing/scheduler.h"
#include "sleepwalk/probing/walker.h"

// Fault injection (deterministic measurement-plane breakage).
#include "sleepwalk/faults/faulty_transport.h"
#include "sleepwalk/faults/plan.h"

// Networking primitives.
#include "sleepwalk/net/checksum.h"
#include "sleepwalk/net/icmp.h"
#include "sleepwalk/net/instrumented_transport.h"
#include "sleepwalk/net/ipv4.h"
#include "sleepwalk/net/rate_limiter.h"
#include "sleepwalk/net/socket.h"
#include "sleepwalk/net/transport.h"

// Observability: structured log, metrics registry, phase tracing.
#include "sleepwalk/obs/context.h"
#include "sleepwalk/obs/export.h"
#include "sleepwalk/obs/log.h"
#include "sleepwalk/obs/metrics.h"
#include "sleepwalk/obs/trace.h"

// Admin plane: live /metrics, /statusz, /tracez over loopback HTTP.
#include "sleepwalk/serve/admin_server.h"
#include "sleepwalk/serve/http.h"
#include "sleepwalk/serve/routes.h"

// Signal processing and statistics.
#include "sleepwalk/fft/fft.h"
#include "sleepwalk/fft/goertzel.h"
#include "sleepwalk/fft/spectrum.h"
#include "sleepwalk/stats/anova.h"
#include "sleepwalk/stats/descriptive.h"
#include "sleepwalk/stats/distributions.h"
#include "sleepwalk/stats/histogram.h"
#include "sleepwalk/stats/regression.h"
#include "sleepwalk/ts/clean.h"
#include "sleepwalk/ts/series.h"
#include "sleepwalk/ts/stationarity.h"

// External-factor substrates.
#include "sleepwalk/asn/asmap.h"
#include "sleepwalk/asn/orgs.h"
#include "sleepwalk/geo/geodb.h"
#include "sleepwalk/geo/grid.h"
#include "sleepwalk/geo/phase_geolocator.h"
#include "sleepwalk/geo/region.h"
#include "sleepwalk/rdns/classifier.h"
#include "sleepwalk/rdns/dns_codec.h"
#include "sleepwalk/rdns/dns_resolver.h"
#include "sleepwalk/rdns/names.h"
#include "sleepwalk/world/economics.h"
#include "sleepwalk/world/iana.h"

// Simulated Internet.
#include "sleepwalk/sim/behavior.h"
#include "sleepwalk/sim/block.h"
#include "sleepwalk/sim/survey.h"
#include "sleepwalk/sim/world.h"

// Reporting helpers.
#include "sleepwalk/report/chart.h"
#include "sleepwalk/report/csv.h"
#include "sleepwalk/report/image.h"
#include "sleepwalk/report/resilience.h"
#include "sleepwalk/report/table.h"

// Crash-safe storage layer and deterministic failure injection.
#include "sleepwalk/storage/bytes.h"
#include "sleepwalk/storage/faulty_env.h"
#include "sleepwalk/storage/file.h"
#include "sleepwalk/util/failpoint.h"

#endif  // SLEEPWALK_SLEEPWALK_H_
