// The daemon wired in-process as tools/fppn_serve.cpp wires it: one
// engine::Engine, one engine::SolveService owning the wire grammar and the
// transport-reject lines, and one net::Server on a Unix socket with its
// reactor and solver pool on their own threads.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <thread>

#include "engine/engine.hpp"
#include "engine/service.hpp"
#include "net/listener.hpp"
#include "net/server.hpp"

namespace perfbench {

class ServeFixture {
 public:
  /// Replaces SolveService::handle as the solver-pool handler (the traced
  /// run's decomposition); null serves through the service itself.
  using Handler = std::function<std::string(std::string, const fppn::net::RequestInfo&)>;

  ServeFixture(const std::string& socket_path, const fppn::engine::ServiceOptions& service,
               const fppn::net::ServerOptions& server, Handler handler = nullptr);
  ~ServeFixture();
  ServeFixture(const ServeFixture&) = delete;
  ServeFixture& operator=(const ServeFixture&) = delete;

  [[nodiscard]] fppn::net::Endpoint endpoint() const;
  [[nodiscard]] fppn::engine::SolveService& service() { return *service_; }
  [[nodiscard]] fppn::net::Server& server() { return *server_; }

 private:
  std::string socket_path_;
  fppn::engine::Engine engine_;
  std::unique_ptr<fppn::engine::SolveService> service_;
  std::unique_ptr<fppn::net::Server> server_;
  std::thread thread_;
};

/// One client round trip: connect, send, half-close, read to EOF. Returns
/// the response, or "" when the connection failed.
std::string roundtrip(const fppn::net::Endpoint& endpoint, const std::string& request);

}  // namespace perfbench
