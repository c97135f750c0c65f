#pragma once

/// \file client.hpp
/// Client side of the dpfd protocol — what `dpfrun --daemon` (and the
/// serve tests) speak.
///
/// A DaemonClient wraps one connection: submit a job, then stream() the
/// frames until the job's terminal frame (the result marked last, or an
/// error/rejected frame). Control ops (ping/stats/cancel/drain) are
/// single-round request(): one frame out, one frame back.

#include <functional>
#include <string>

#include "serve/json.hpp"

namespace dpf::serve {

class DaemonClient {
 public:
  DaemonClient() = default;
  ~DaemonClient();
  DaemonClient(const DaemonClient&) = delete;
  DaemonClient& operator=(const DaemonClient&) = delete;

  /// Connects to the daemon socket (empty path = default_socket_path()).
  [[nodiscard]] bool connect(const std::string& path, std::string* err);

  [[nodiscard]] bool connected() const { return fd_ >= 0; }

  /// Sends one frame.
  [[nodiscard]] bool send(const Json& msg, std::string* err = nullptr);

  /// Reads one frame.
  [[nodiscard]] bool recv(Json* msg, std::string* err = nullptr);

  /// One-round control op: send, read the single reply. Null Json on error.
  [[nodiscard]] Json request(const Json& msg, std::string* err = nullptr);

  /// Reads frames until the submitted job terminates: a result frame with
  /// last=true (or absent), or an error/rejected frame. Every frame is
  /// handed to `on_frame` (may be null); the terminal frame lands in
  /// `*final_frame` (may be null). False on a transport error.
  [[nodiscard]] bool stream(const std::function<void(const Json&)>& on_frame,
                            Json* final_frame, std::string* err = nullptr);

  void close();

 private:
  int fd_ = -1;
};

/// Snapshot of the engine's environment knobs from this process's
/// environment, for forwarding in a submit — the daemon then runs the job
/// under the same DPF_NET / DPF_SIMD / DPF_WORKERS the caller would have
/// used locally. Only set variables appear.
[[nodiscard]] Json knob_snapshot_from_env();

}  // namespace dpf::serve
