#include "serve/client.hpp"

#include <unistd.h>

#include <cstdlib>

#include "serve/protocol.hpp"

namespace dpf::serve {

DaemonClient::~DaemonClient() { close(); }

bool DaemonClient::connect(const std::string& path, std::string* err) {
  close();
  fd_ = connect_unix(path.empty() ? default_socket_path() : path, err);
  return fd_ >= 0;
}

bool DaemonClient::send(const Json& msg, std::string* err) {
  if (fd_ < 0) {
    if (err != nullptr) *err = "not connected";
    return false;
  }
  return write_frame(fd_, msg, err);
}

bool DaemonClient::recv(Json* msg, std::string* err) {
  if (fd_ < 0) {
    if (err != nullptr) *err = "not connected";
    return false;
  }
  return read_frame(fd_, msg, err);
}

Json DaemonClient::request(const Json& msg, std::string* err) {
  Json reply;
  if (!send(msg, err) || !recv(&reply, err)) return Json();
  return reply;
}

bool DaemonClient::stream(const std::function<void(const Json&)>& on_frame,
                          Json* final_frame, std::string* err) {
  Json frame;
  while (recv(&frame, err)) {
    if (on_frame) on_frame(frame);
    const std::string& type = frame["type"].as_string();
    const bool terminal =
        type == "rejected" || type == "error" ||
        (type == "result" && frame["last"].as_bool(true));
    if (terminal) {
      if (final_frame != nullptr) *final_frame = frame;
      return true;
    }
  }
  return false;
}

void DaemonClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Json knob_snapshot_from_env() {
  static constexpr const char* kKnobs[] = {
      "DPF_NET",
      "DPF_SIMD",
      "DPF_WORKERS",
  };
  Json j(Json::Object{});
  for (const char* name : kKnobs) {
    if (const char* v = std::getenv(name)) j.set(name, v);
  }
  return j;
}

}  // namespace dpf::serve
