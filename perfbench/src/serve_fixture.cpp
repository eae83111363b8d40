#include "serve_fixture.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>

namespace perfbench {

namespace engine = fppn::engine;
namespace net = fppn::net;

ServeFixture::ServeFixture(const std::string& socket_path,
                           const engine::ServiceOptions& service,
                           const net::ServerOptions& server, Handler handler)
    : socket_path_(socket_path) {
  std::remove(socket_path_.c_str());
  service_ = std::make_unique<engine::SolveService>(engine_, service);
  net::ServerProtocol protocol;
  protocol.overloaded = [this] { return service_->overloaded_line(); };
  protocol.oversized = [this](std::size_t bytes) { return service_->oversized_line(bytes); };
  protocol.read_error = [this](int error) { return service_->read_error_line(error); };
  protocol.deadline_exceeded = [this] { return service_->deadline_exceeded_line(); };
  protocol.timed_out = [this](net::Reactor::TimeoutKind kind) {
    switch (kind) {
      case net::Reactor::TimeoutKind::kIdle:
        service_->note_timeout(engine::ServeTimeout::kIdle);
        break;
      case net::Reactor::TimeoutKind::kRequest:
        service_->note_timeout(engine::ServeTimeout::kRequest);
        break;
      case net::Reactor::TimeoutKind::kWrite:
        service_->note_timeout(engine::ServeTimeout::kWrite);
        break;
    }
  };
  net::Server::Handler serve =
      handler ? std::move(handler)
              : net::Server::Handler([this](std::string request, const net::RequestInfo& info) {
                  engine::RequestLoad load;
                  load.queue_wait_ms = info.queue_wait_ms;
                  load.queue_depth = info.queue_depth;
                  load.queue_capacity = info.queue_capacity;
                  return service_->handle(request, load);
                });
  server_ = std::make_unique<net::Server>(server, protocol, std::move(serve));
  server_->add_listener(net::Listener::listen(net::Endpoint::unix_socket(socket_path_)));
  thread_ = std::thread([this] { server_->run(); });
}

ServeFixture::~ServeFixture() {
  server_->stop();
  thread_.join();
  std::remove(socket_path_.c_str());
}

net::Endpoint ServeFixture::endpoint() const {
  return net::Endpoint::unix_socket(socket_path_);
}

std::string roundtrip(const net::Endpoint& endpoint, const std::string& request) {
  const int fd = net::connect_endpoint(endpoint);
  if (fd < 0) {
    return {};
  }
  std::size_t off = 0;
  while (off < request.size()) {
    const ssize_t n = ::send(fd, request.data() + off, request.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      ::close(fd);
      return {};
    }
    off += static_cast<std::size_t>(n);
  }
  ::shutdown(fd, SHUT_WR);
  std::string response;
  char buf[16384];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n > 0) {
      response.append(buf, static_cast<std::size_t>(n));
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      break;
    }
  }
  ::close(fd);
  return response;
}

}  // namespace perfbench
