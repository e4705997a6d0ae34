#include "gateway/http_client.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <stdexcept>
#include <thread>

namespace tart::gateway {

namespace {

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

void write_all(int fd, std::string_view bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd p{fd, POLLOUT, 0};
      (void)::poll(&p, 1, 1000);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    throw std::runtime_error("http client: write failed");
  }
}

}  // namespace

const std::string* HttpResponse::header(std::string_view name) const {
  for (const auto& [k, v] : headers) {
    if (iequals(k, name)) return &v;
  }
  return nullptr;
}

std::optional<BlockingHttpClient> BlockingHttpClient::connect(
    const std::string& addr, std::chrono::milliseconds timeout) {
  const auto parsed = net::SockAddr::parse(addr);
  if (!parsed) return std::nullopt;
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    bool in_progress = false;
    std::string err;
    net::Fd fd = net::connect_tcp(*parsed, &in_progress, &err);
    if (fd.valid() && in_progress) {
      pollfd p{fd.get(), POLLOUT, 0};
      (void)::poll(&p, 1, 1000);
      if (net::connect_error(fd.get()) != 0) fd.reset();
    }
    if (fd.valid()) return BlockingHttpClient(std::move(fd));
    if (std::chrono::steady_clock::now() >= deadline) return std::nullopt;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

HttpResponse BlockingHttpClient::request(std::string_view method,
                                         std::string_view target,
                                         std::string_view body,
                                         std::string_view content_type) {
  std::string req;
  req += method;
  req += ' ';
  req += target;
  req += " HTTP/1.1\r\nHost: tart\r\n";
  if (!content_type.empty()) {
    req += "Content-Type: ";
    req += content_type;
    req += "\r\n";
  }
  req += "Content-Length: ";
  req += std::to_string(body.size());
  req += "\r\n\r\n";
  req += body;
  write_all(fd_.get(), req);

  // Read until a full response (status line + headers + Content-Length
  // body) is buffered. The server always sends Content-Length.
  // POST /drain and POST /migrate block server-side for up to their own
  // 30 s timeouts before answering, so allow twice that.
  const auto read_more = [this] {
    pollfd p{fd_.get(), POLLIN, 0};
    const int rc = ::poll(&p, 1, 60000);
    if (rc <= 0) throw std::runtime_error("http client: response timeout");
    char buf[16384];
    const ssize_t n = ::read(fd_.get(), buf, sizeof(buf));
    if (n == 0) throw std::runtime_error("http client: connection closed");
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
      throw std::runtime_error("http client: read failed");
    }
    inbuf_.append(buf, static_cast<std::size_t>(n));
  };

  std::size_t header_end;
  for (;;) {
    header_end = inbuf_.find("\r\n\r\n");
    if (header_end != std::string::npos) break;
    read_more();
  }

  HttpResponse resp;
  std::size_t cursor = 0;
  {
    const std::size_t eol = inbuf_.find("\r\n");
    std::string_view line(inbuf_.data(), eol);
    if (line.size() < 12 || line.rfind("HTTP/1.", 0) != 0)
      throw std::runtime_error("http client: bad status line");
    resp.status = std::stoi(std::string(line.substr(9, 3)));
    cursor = eol + 2;
  }
  while (cursor < header_end) {
    const std::size_t eol = inbuf_.find("\r\n", cursor);
    std::string_view line(inbuf_.data() + cursor, eol - cursor);
    cursor = eol + 2;
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos) continue;
    std::string_view value = line.substr(colon + 1);
    while (!value.empty() && value.front() == ' ') value.remove_prefix(1);
    resp.headers.emplace_back(std::string(line.substr(0, colon)),
                              std::string(value));
  }

  std::size_t body_len = 0;
  if (const std::string* cl = resp.header("Content-Length"))
    body_len = static_cast<std::size_t>(std::stoull(*cl));
  const std::size_t body_start = header_end + 4;
  while (inbuf_.size() - body_start < body_len) read_more();
  resp.body = inbuf_.substr(body_start, body_len);
  inbuf_.erase(0, body_start + body_len);
  return resp;
}

void BlockingHttpClient::send_raw(std::string_view bytes) {
  write_all(fd_.get(), bytes);
}

std::string BlockingHttpClient::read_until_close(
    std::chrono::milliseconds timeout) {
  std::string out = std::move(inbuf_);
  inbuf_.clear();
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    pollfd p{fd_.get(), POLLIN, 0};
    const int rc = ::poll(&p, 1, 200);
    if (rc <= 0) continue;
    char buf[16384];
    const ssize_t n = ::read(fd_.get(), buf, sizeof(buf));
    if (n == 0) return out;
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) continue;
      return out;
    }
    out.append(buf, static_cast<std::size_t>(n));
  }
  return out;
}

}  // namespace tart::gateway
