#include "obs/exposition.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "core/error.hpp"

namespace citl::obs {

namespace {

/// Prometheus sample value: shortest representation that round-trips (so a
/// 0.1 bucket bound renders as le="0.1", not le="0.10000000000000001"), with
/// the exposition format's spellings for the non-finite values.
std::string prom_value(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[40];
  // Integral values print as plain decimal ("10", not the equally short
  // round-trip spelling "1e+01" that %.1g would pick).
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return buf;
  }
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

std::string prom_value(std::uint64_t v) { return std::to_string(v); }

/// Escapes a label value: backslash, double quote, newline.
std::string escape_label(std::string_view v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '"') {
      out += "\\\"";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

struct ParsedName {
  std::string metric;  ///< sanitised bare metric name (citl_...)
  std::string labels;  ///< rendered label body, e.g. `op="mul",fu="mul"`
};

/// Splits `base[key=value,...]`, sanitises the base, renders the labels.
ParsedName parse_name(std::string_view registry_name) {
  ParsedName out;
  std::string_view base = registry_name;
  std::string_view label_body;
  const std::size_t open = registry_name.find('[');
  if (open != std::string_view::npos && registry_name.back() == ']') {
    base = registry_name.substr(0, open);
    label_body = registry_name.substr(open + 1,
                                      registry_name.size() - open - 2);
  }
  out.metric = "citl_";
  for (char c : base) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.metric += ok ? c : '_';
  }
  while (!label_body.empty()) {
    const std::size_t comma = label_body.find(',');
    std::string_view pair = label_body.substr(0, comma);
    label_body = comma == std::string_view::npos
                     ? std::string_view{}
                     : label_body.substr(comma + 1);
    const std::size_t eq = pair.find('=');
    if (eq == std::string_view::npos || eq == 0) continue;
    if (!out.labels.empty()) out.labels += ',';
    out.labels += std::string(pair.substr(0, eq));
    out.labels += "=\"";
    out.labels += escape_label(pair.substr(eq + 1));
    out.labels += '"';
  }
  return out;
}

void append_type_line(std::string& out, const std::string& metric,
                      const char* type, std::string& last_typed) {
  if (metric == last_typed) return;  // labelled series share one TYPE line
  out += "# TYPE ";
  out += metric;
  out += ' ';
  out += type;
  out += '\n';
  last_typed = metric;
}

template <typename V>
void append_sample(std::string& out, const std::string& metric,
                   const std::string& labels, V value) {
  out += metric;
  if (!labels.empty()) {
    out += '{';
    out += labels;
    out += '}';
  }
  out += ' ';
  out += prom_value(value);
  out += '\n';
}

/// One histogram in exposition form: cumulative `le` buckets ending at
/// `+Inf`, then `_count` and `_sum`. The registry histogram's buckets are
/// upper-inclusive, so the running sum IS the Prometheus cumulative count.
void append_histogram(std::string& out, const std::string& metric,
                      const std::string& labels,
                      const std::vector<double>& bounds,
                      const std::vector<std::uint64_t>& counts,
                      std::uint64_t count, double sum,
                      std::string& last_typed) {
  append_type_line(out, metric, "histogram", last_typed);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    cumulative += counts[i];
    std::string le = labels;
    if (!le.empty()) le += ',';
    le += "le=\"" + prom_value(bounds[i]) + "\"";
    append_sample(out, metric + "_bucket", le, cumulative);
  }
  std::string le = labels;
  if (!le.empty()) le += ',';
  le += "le=\"+Inf\"";
  append_sample(out, metric + "_bucket", le, count);
  append_sample(out, metric + "_count", labels, count);
  append_sample(out, metric + "_sum", labels, sum);
}

}  // namespace

std::string prometheus_name(std::string_view registry_name) {
  return parse_name(registry_name).metric;
}

std::string prometheus_text(const MetricsSnapshot& snapshot) {
  std::string out;
  std::string last_typed;
  for (const auto& [name, value] : snapshot.counters) {
    const ParsedName p = parse_name(name);
    append_type_line(out, p.metric, "counter", last_typed);
    append_sample(out, p.metric, p.labels, value);
  }
  for (const auto& [name, value] : snapshot.gauges) {
    const ParsedName p = parse_name(name);
    append_type_line(out, p.metric, "gauge", last_typed);
    append_sample(out, p.metric, p.labels, value);
  }
  for (const auto& h : snapshot.histograms) {
    const ParsedName p = parse_name(h.name);
    append_histogram(out, p.metric, p.labels, h.bounds, h.counts, h.count,
                     h.sum, last_typed);
  }
  return out;
}

std::string prometheus_text(const Registry& registry) {
  return prometheus_text(registry.snapshot());
}

ScrapeServer::ScrapeServer(const Registry& registry) : registry_(&registry) {}

ScrapeServer::~ScrapeServer() { stop(); }

void ScrapeServer::add_collector(Collector fn) {
  CITL_CHECK_MSG(!running(), "add_collector before start()");
  collectors_.push_back(std::move(fn));
}

std::string ScrapeServer::render() const {
  std::string body = prometheus_text(*registry_);
  for (const auto& fn : collectors_) body += fn();
  return body;
}

void ScrapeServer::start(std::uint16_t port) {
  CITL_CHECK_MSG(!running(), "scrape server already running");
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw ConfigError("scrape server: socket() failed: " +
                      std::string(std::strerror(errno)));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listen_fd_, 4) < 0) {
    const std::string why = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw ConfigError("scrape server: cannot listen on port " +
                      std::to_string(port) + ": " + why);
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  stop_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { serve_loop(); });
}

void ScrapeServer::stop() {
  if (!running()) return;
  stop_.store(true, std::memory_order_release);
  // shutdown() (unlike a bare close()) reliably wakes the blocking accept.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (thread_.joinable()) thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  port_ = 0;
  running_.store(false, std::memory_order_release);
}

void ScrapeServer::serve_loop() {
  while (!stop_.load(std::memory_order_acquire)) {
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) {
      if (stop_.load(std::memory_order_acquire)) break;
      if (errno == EINTR) continue;
      break;
    }
    // Read the request head (first line is all we route on); a scraper's
    // request fits one read, but loop until the blank line just in case.
    std::string request;
    char buf[1024];
    while (request.find("\r\n\r\n") == std::string::npos &&
           request.size() < 8192) {
      const ssize_t n = ::read(client, buf, sizeof(buf));
      if (n <= 0) break;
      request.append(buf, static_cast<std::size_t>(n));
    }
    std::string response;
    if (request.rfind("GET /metrics", 0) == 0) {
      const std::string body = render();
      response =
          "HTTP/1.1 200 OK\r\n"
          "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
          "Content-Length: " +
          std::to_string(body.size()) +
          "\r\n"
          "Connection: close\r\n\r\n" +
          body;
    } else {
      response =
          "HTTP/1.1 404 Not Found\r\n"
          "Content-Length: 0\r\n"
          "Connection: close\r\n\r\n";
    }
    std::size_t off = 0;
    while (off < response.size()) {
      const ssize_t n =
          ::write(client, response.data() + off, response.size() - off);
      if (n <= 0) break;
      off += static_cast<std::size_t>(n);
    }
    ::close(client);
  }
}

}  // namespace citl::obs
