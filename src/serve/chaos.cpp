#include "serve/chaos.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/error.hpp"
#include "core/random.hpp"
#include "fault/fault.hpp"
#include "serve/wire.hpp"

namespace citl::serve {

namespace {

/// One relayed connection: the client-facing socket and its upstream twin.
/// Pumps shut both ends down to sever the pair; fds close when the last
/// shared_ptr drops.
struct Link {
  Link(int client_fd_, int server_fd_)
      : client_fd(client_fd_), server_fd(server_fd_) {}
  ~Link() {
    ::close(client_fd);
    ::close(server_fd);
  }
  void sever() noexcept {
    ::shutdown(client_fd, SHUT_RDWR);
    ::shutdown(server_fd, SHUT_RDWR);
  }
  const int client_fd;
  const int server_fd;
};

[[nodiscard]] bool write_all(int fd, const std::uint8_t* data,
                             std::size_t len) noexcept {
  std::size_t written = 0;
  while (written < len) {
    const ssize_t n = ::send(fd, data + written, len - written, MSG_NOSIGNAL);
    if (n > 0) {
      written += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

[[nodiscard]] std::uint32_t read_u32le(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace

struct ChaosProxy::Impl {
  explicit Impl(ChaosConfig cfg) : config(cfg) {}

  ChaosConfig config;

  std::atomic<bool> running{false};
  std::atomic<bool> stopping{false};
  int listen_fd = -1;
  std::uint16_t port = 0;

  std::thread accept_thread;
  std::mutex mutex;  ///< guards pumps + links
  std::vector<std::thread> pumps;
  std::vector<std::weak_ptr<Link>> links;
  std::uint64_t next_conn_index = 0;

  std::atomic<std::uint64_t> connections{0};
  std::atomic<std::uint64_t> frames_forwarded{0};
  std::atomic<std::uint64_t> frames_torn{0};
  std::atomic<std::uint64_t> frames_delayed{0};
  std::atomic<std::uint64_t> frames_duplicated{0};
  std::atomic<std::uint64_t> connections_dropped{0};

  void accept_loop();
  void pump(std::shared_ptr<Link> link, int from, int to, Rng rng,
            bool client_to_server);
  /// Applies one frame's fate; returns false when the link must die.
  [[nodiscard]] bool relay_frame(const std::shared_ptr<Link>& link, int to,
                                 const std::uint8_t* frame, std::size_t size,
                                 Rng& rng, bool client_to_server);
  void pause() const {
    std::this_thread::sleep_for(std::chrono::milliseconds(config.delay_ms));
  }
};

ChaosProxy::ChaosProxy(ChaosConfig config)
    : impl_(std::make_unique<Impl>(config)) {}

ChaosProxy::~ChaosProxy() { stop(); }

std::uint16_t ChaosProxy::port() const noexcept { return impl_->port; }

ChaosStats ChaosProxy::stats() const {
  const Impl& s = *impl_;
  ChaosStats out;
  out.connections = s.connections.load(std::memory_order_relaxed);
  out.frames_forwarded = s.frames_forwarded.load(std::memory_order_relaxed);
  out.frames_torn = s.frames_torn.load(std::memory_order_relaxed);
  out.frames_delayed = s.frames_delayed.load(std::memory_order_relaxed);
  out.frames_duplicated = s.frames_duplicated.load(std::memory_order_relaxed);
  out.connections_dropped =
      s.connections_dropped.load(std::memory_order_relaxed);
  return out;
}

void ChaosProxy::start() {
  Impl& s = *impl_;
  if (s.running.load(std::memory_order_acquire)) return;
  s.listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (s.listen_fd < 0) {
    throw ConfigError("chaos proxy: socket() failed: " +
                      std::string(std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(s.listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(s.config.listen_port);
  if (::bind(s.listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(s.listen_fd, 16) < 0) {
    const std::string err = std::strerror(errno);
    ::close(s.listen_fd);
    s.listen_fd = -1;
    throw ConfigError("chaos proxy: cannot listen on port " +
                      std::to_string(s.config.listen_port) + ": " + err);
  }
  socklen_t len = sizeof(addr);
  ::getsockname(s.listen_fd, reinterpret_cast<sockaddr*>(&addr), &len);
  s.port = ntohs(addr.sin_port);
  s.stopping.store(false, std::memory_order_release);
  s.running.store(true, std::memory_order_release);
  s.accept_thread = std::thread([&s] { s.accept_loop(); });
}

void ChaosProxy::stop() {
  Impl& s = *impl_;
  if (!s.running.load(std::memory_order_acquire)) return;
  s.stopping.store(true, std::memory_order_release);
  // Wake the blocking accept(), then sever every live link so the pump
  // threads' blocking reads return (the ScrapeServer teardown pattern).
  ::shutdown(s.listen_fd, SHUT_RDWR);
  {
    std::lock_guard<std::mutex> lk(s.mutex);
    for (const auto& weak : s.links) {
      if (auto link = weak.lock()) link->sever();
    }
  }
  s.accept_thread.join();
  std::vector<std::thread> pumps;
  {
    std::lock_guard<std::mutex> lk(s.mutex);
    pumps.swap(s.pumps);
  }
  for (auto& t : pumps) t.join();
  ::close(s.listen_fd);
  s.listen_fd = -1;
  s.port = 0;
  {
    std::lock_guard<std::mutex> lk(s.mutex);
    s.links.clear();
  }
  s.running.store(false, std::memory_order_release);
}

void ChaosProxy::Impl::accept_loop() {
  while (!stopping.load(std::memory_order_acquire)) {
    const int client = ::accept(listen_fd, nullptr, nullptr);
    if (client < 0) {
      if (errno == EINTR) continue;
      return;  // listener shut down
    }
    const int upstream = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(config.upstream_port);
    if (upstream < 0 ||
        ::connect(upstream, reinterpret_cast<sockaddr*>(&addr),
                  sizeof(addr)) < 0) {
      if (upstream >= 0) ::close(upstream);
      ::close(client);
      continue;
    }
    const int one = 1;
    ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::setsockopt(upstream, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    auto link = std::make_shared<Link>(client, upstream);
    connections.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lk(mutex);
    if (stopping.load(std::memory_order_acquire)) {
      link->sever();
      continue;
    }
    const std::uint64_t conn_seed =
        fault::derive_stream(config.seed, next_conn_index++);
    links.push_back(link);
    pumps.emplace_back([this, link, conn_seed] {
      pump(link, link->client_fd, link->server_fd,
           Rng(fault::derive_stream(conn_seed, 0)),
           /*client_to_server=*/true);
    });
    pumps.emplace_back([this, link, conn_seed] {
      pump(link, link->server_fd, link->client_fd,
           Rng(fault::derive_stream(conn_seed, 1)),
           /*client_to_server=*/false);
    });
  }
}

bool ChaosProxy::Impl::relay_frame(const std::shared_ptr<Link>& link, int to,
                                   const std::uint8_t* frame,
                                   std::size_t size, Rng& rng,
                                   bool client_to_server) {
  // One uniform draw per frame, carved into cumulative probability bands —
  // the schedule depends only on (seed, connection, direction, frame index).
  const double u = rng.uniform();
  double band = config.drop_prob;
  if (u < band) {
    connections_dropped.fetch_add(1, std::memory_order_relaxed);
    link->sever();
    return false;
  }
  band += config.tear_prob;
  if (u < band && size > 1) {
    // Torn frame: the far side sees a partial read, stalls on an incomplete
    // frame for delay_ms, then gets the rest.
    const std::size_t split =
        1 + static_cast<std::size_t>(rng.next_u64() % (size - 1));
    frames_torn.fetch_add(1, std::memory_order_relaxed);
    if (!write_all(to, frame, split)) return false;
    pause();
    if (!write_all(to, frame + split, size - split)) return false;
    frames_forwarded.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  band += config.delay_prob;
  if (u < band) {
    frames_delayed.fetch_add(1, std::memory_order_relaxed);
    pause();
  } else {
    band += config.duplicate_prob;
    if (u < band && client_to_server) {
      // Duplicated request: what a client retry racing its own delayed
      // response looks like to the server.
      frames_duplicated.fetch_add(1, std::memory_order_relaxed);
      if (!write_all(to, frame, size)) return false;
      frames_forwarded.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (!write_all(to, frame, size)) return false;
  frames_forwarded.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void ChaosProxy::Impl::pump(std::shared_ptr<Link> link, int from, int to,
                            Rng rng, bool client_to_server) {
  std::vector<std::uint8_t> buf;
  std::size_t consumed = 0;
  bool passthrough = false;  // set when the stream stops looking like frames
  std::uint8_t chunk[65536];
  for (;;) {
    const ssize_t n = ::recv(from, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      link->sever();
      return;
    }
    if (passthrough) {
      if (!write_all(to, chunk, static_cast<std::size_t>(n))) {
        link->sever();
        return;
      }
      continue;
    }
    buf.insert(buf.end(), chunk, chunk + n);
    for (;;) {
      const std::size_t avail = buf.size() - consumed;
      if (avail < 4) break;
      const std::uint32_t body = read_u32le(buf.data() + consumed);
      if (body < kHeaderBytes || body > kMaxFrameBytes) {
        // Not citl-wire-v1 framing: relay the rest verbatim.
        passthrough = true;
        if (!write_all(to, buf.data() + consumed, avail)) {
          link->sever();
          return;
        }
        buf.clear();
        consumed = 0;
        break;
      }
      const std::size_t frame_size = 4 + static_cast<std::size_t>(body);
      if (avail < frame_size) break;
      if (!relay_frame(link, to, buf.data() + consumed, frame_size, rng,
                       client_to_server)) {
        return;
      }
      consumed += frame_size;
    }
    if (consumed == buf.size()) {
      buf.clear();
      consumed = 0;
    } else if (consumed > (1u << 16)) {
      buf.erase(buf.begin(),
                buf.begin() + static_cast<std::ptrdiff_t>(consumed));
      consumed = 0;
    }
  }
}

}  // namespace citl::serve
