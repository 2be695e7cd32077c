// HIL-as-a-service daemon: a SessionRuntime pool behind the citl-wire-v1
// loopback server, with the serve counters joined onto a Prometheus scrape
// endpoint. This is the process the CI server-smoke job boots; it prints
// both bound ports on stdout (machine-parseable, one per line) and lingers
// so clients — examples/serve_client.cpp, or anything speaking the framed
// protocol in docs/SERVING.md — can connect.
//
// Usage: citl_serve [--port N] [--metrics-port N] [--linger SEC]
//                   [--max-sessions N] [--occupancy-budget X] [--workers N]
//                   [--state-dir DIR] [--checkpoint-interval TURNS]
//                   [--idle-ttl SEC] [--read-deadline-ms N]
//
// Port 0 (the default) binds an ephemeral port. With no --linger the daemon
// serves until stdin reaches EOF, so `citl_serve < /dev/null` exits at once
// and a shell pipe keeps it alive exactly as long as the driver wants.
//
// --state-dir enables the citl-journal-v2 write-ahead journal: every
// acknowledged mutation is synced per session under DIR, and a restarted
// daemon pointed at the same DIR replays the journals bit-exactly before
// accepting connections (the CI crash-recovery smoke kill -9s this process
// and asserts exactly that). --idle-ttl reaps sessions no request has
// touched for that long; --read-deadline-ms closes connections that park a
// partial frame (slow-loris guard).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "obs/exposition.hpp"
#include "serve/server.hpp"

int main(int argc, char** argv) {
  using namespace citl;

  int port = 0;
  int metrics_port = 0;
  double linger_s = -1.0;  // < 0: serve until stdin EOF
  serve::ServerConfig config;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--port") == 0 && i + 1 < argc) {
      port = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--metrics-port") == 0 && i + 1 < argc) {
      metrics_port = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--linger") == 0 && i + 1 < argc) {
      linger_s = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--max-sessions") == 0 && i + 1 < argc) {
      config.runtime.max_sessions =
          static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--occupancy-budget") == 0 &&
               i + 1 < argc) {
      config.runtime.occupancy_budget = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      config.workers = static_cast<unsigned>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--state-dir") == 0 && i + 1 < argc) {
      config.runtime.state_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--checkpoint-interval") == 0 &&
               i + 1 < argc) {
      config.runtime.checkpoint_interval_turns =
          static_cast<std::uint32_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--idle-ttl") == 0 && i + 1 < argc) {
      config.runtime.idle_session_ttl_s = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--read-deadline-ms") == 0 &&
               i + 1 < argc) {
      config.read_deadline_ms = static_cast<std::uint32_t>(std::atoi(argv[++i]));
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    }
  }
  config.port = static_cast<std::uint16_t>(port);

  serve::SessionServer server(config);
  server.start();
  if (!config.runtime.state_dir.empty()) {
    // start() replayed whatever journals the state dir held before binding.
    std::printf("recovered %llu sessions from %s\n",
                static_cast<unsigned long long>(
                    server.runtime().stats().sessions_recovered),
                config.runtime.state_dir.c_str());
  }
  std::printf("serving citl-wire-v1 on 127.0.0.1:%u\n",
              static_cast<unsigned>(server.port()));

  // The runtime's registry (its own counters and the endpoint's) renders
  // through the same obs renderer as the process-wide registry; as a
  // collector it puts the citl_serve_* family on the one /metrics scrape.
  obs::ScrapeServer scrape;
  scrape.add_collector(
      [&server] { return server.runtime().prometheus_text(); });
  scrape.start(static_cast<std::uint16_t>(metrics_port));
  std::printf("serving /metrics on http://127.0.0.1:%u/metrics\n",
              static_cast<unsigned>(scrape.port()));
  std::fflush(stdout);

  if (linger_s >= 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(linger_s));
  } else {
    // Block until the parent closes our stdin.
    for (int c; (c = std::getchar()) != EOF;) {
    }
  }

  const serve::RuntimeStats stats = server.runtime().stats();
  std::printf("shutting down: %llu sessions served, %llu turns stepped, "
              "%llu admission rejections\n",
              static_cast<unsigned long long>(stats.sessions_created),
              static_cast<unsigned long long>(stats.turns_stepped),
              static_cast<unsigned long long>(stats.admission_rejections));
  scrape.stop();
  server.stop();
  return 0;
}
