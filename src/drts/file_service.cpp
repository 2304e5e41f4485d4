#include "drts/file_service.h"

#include <algorithm>

#include "convert/packed.h"

namespace ntcs::drts {

using namespace std::chrono_literals;
using convert::Packer;
using convert::Unpacker;

namespace {

enum class FsOp : std::uint64_t {
  write = 1,
  append = 2,
  read = 3,
  read_range = 4,
  remove = 5,
  stat = 6,
  list = 7,
};

Packer ok_prologue() {
  Packer p;
  p.put_u64(static_cast<std::uint64_t>(ntcs::Errc::ok));
  p.put_string("");
  return p;
}

ntcs::Bytes error_response(ntcs::Errc code, const std::string& text) {
  Packer p;
  p.put_u64(static_cast<std::uint64_t>(code));
  p.put_string(text);
  return std::move(p).take();
}

std::optional<ntcs::Error> check_status(Unpacker& u) {
  auto code = u.get_u64();
  if (!code) return code.error();
  auto text = u.get_string();
  if (!text) return text.error();
  if (code.value() == static_cast<std::uint64_t>(ntcs::Errc::ok)) {
    return std::nullopt;
  }
  return ntcs::Error(static_cast<ntcs::Errc>(code.value()), text.value());
}

void put_info(Packer& p, const std::string& path, std::uint64_t size,
              std::uint64_t version) {
  p.put_string(path);
  p.put_u64(size);
  p.put_u64(version);
}

ntcs::Result<FileInfo> get_info(Unpacker& u) {
  FileInfo info;
  auto path = u.get_string();
  if (!path) return path.error();
  info.path = std::move(path.value());
  auto size = u.get_u64();
  if (!size) return size.error();
  info.size = size.value();
  auto version = u.get_u64();
  if (!version) return version.error();
  info.version = version.value();
  return info;
}

}  // namespace

FileServer::FileServer(core::NodeConfig cfg) {
  if (cfg.name.empty()) cfg.name = std::string(kFileServiceName);
  node_ = std::make_unique<core::Node>(std::move(cfg));
}

FileServer::~FileServer() { stop(); }

ntcs::Status FileServer::start() {
  if (node_->running()) return ntcs::Status::success();
  if (auto st = node_->start(); !st.ok()) return st;
  auto uadd = node_->commod().register_self({{"role", "file"}});
  if (!uadd) return uadd.error();
  node_->run([this](std::stop_token st) {
    node_->commod().serve(
        st, [this](const core::Incoming& in) { return handle(in.payload); });
  });
  return ntcs::Status::success();
}

ntcs::Bytes FileServer::handle(ntcs::BytesView request) {
  Unpacker u(request);
  auto op = u.get_u64();
  if (!op) return error_response(ntcs::Errc::bad_message, "missing op");
  auto path = u.get_string();
  if (!path) return error_response(ntcs::Errc::bad_message, "missing path");
  if (path.value().empty() &&
      static_cast<FsOp>(op.value()) != FsOp::list) {
    return error_response(ntcs::Errc::bad_argument, "empty path");
  }
  ntcs::LockGuard lk(mu_);
  switch (static_cast<FsOp>(op.value())) {
    case FsOp::write: {
      auto data = u.get_bytes();
      if (!data) return error_response(ntcs::Errc::bad_message, "no data");
      if (data.value().size() > kMaxFileSize) {
        return error_response(ntcs::Errc::too_big, "file too large");
      }
      Entry& e = files_[path.value()];
      e.data = std::move(data.value());
      ++e.version;
      return std::move(ok_prologue()).take();
    }
    case FsOp::append: {
      auto data = u.get_bytes();
      if (!data) return error_response(ntcs::Errc::bad_message, "no data");
      Entry& e = files_[path.value()];
      if (e.data.size() + data.value().size() > kMaxFileSize) {
        return error_response(ntcs::Errc::too_big, "file too large");
      }
      ntcs::append(e.data, data.value());
      ++e.version;
      return std::move(ok_prologue()).take();
    }
    case FsOp::read: {
      auto it = files_.find(path.value());
      if (it == files_.end()) {
        return error_response(ntcs::Errc::not_found, path.value());
      }
      Packer p = ok_prologue();
      p.put_bytes(it->second.data);
      return std::move(p).take();
    }
    case FsOp::read_range: {
      auto offset = u.get_u64();
      if (!offset) return error_response(ntcs::Errc::bad_message, "no offset");
      auto len = u.get_u64();
      if (!len) return error_response(ntcs::Errc::bad_message, "no length");
      auto it = files_.find(path.value());
      if (it == files_.end()) {
        return error_response(ntcs::Errc::not_found, path.value());
      }
      const ntcs::Bytes& d = it->second.data;
      if (offset.value() > d.size()) {
        return error_response(ntcs::Errc::bad_argument, "offset past end");
      }
      const std::uint64_t n =
          std::min<std::uint64_t>(len.value(), d.size() - offset.value());
      Packer p = ok_prologue();
      p.put_bytes(ntcs::BytesView(d).subspan(offset.value(), n));
      return std::move(p).take();
    }
    case FsOp::remove: {
      if (files_.erase(path.value()) == 0) {
        return error_response(ntcs::Errc::not_found, path.value());
      }
      return std::move(ok_prologue()).take();
    }
    case FsOp::stat: {
      auto it = files_.find(path.value());
      if (it == files_.end()) {
        return error_response(ntcs::Errc::not_found, path.value());
      }
      Packer p = ok_prologue();
      put_info(p, it->first, it->second.data.size(), it->second.version);
      return std::move(p).take();
    }
    case FsOp::list: {
      Packer p = ok_prologue();
      std::vector<const std::pair<const std::string, Entry>*> hits;
      for (const auto& kv : files_) {
        if (kv.first.rfind(path.value(), 0) == 0) hits.push_back(&kv);
      }
      p.put_u64(hits.size());
      for (const auto* kv : hits) {
        put_info(p, kv->first, kv->second.data.size(), kv->second.version);
      }
      return std::move(p).take();
    }
  }
  return error_response(ntcs::Errc::bad_message, "unknown file op");
}

std::size_t FileServer::file_count() const {
  ntcs::LockGuard lk(mu_);
  return files_.size();
}

std::uint64_t FileServer::bytes_stored() const {
  ntcs::LockGuard lk(mu_);
  std::uint64_t total = 0;
  for (const auto& [path, e] : files_) total += e.data.size();
  return total;
}

FileClient::FileClient(core::Node& node) : node_(node) {}

ntcs::Status FileClient::connect() {
  auto located = node_.nsp().lookup(std::string(kFileServiceName));
  if (!located) return located.error();
  server_ = located.value();
  return ntcs::Status::success();
}

ntcs::Result<ntcs::Bytes> FileClient::call(ntcs::Bytes request) {
  if (!server_.valid()) {
    return ntcs::Error(ntcs::Errc::bad_argument, "file client not connected");
  }
  core::SendOptions opts;
  opts.internal = true;
  opts.timeout = 5s;
  auto reply =
      node_.lcm().request(server_, core::Payload::raw(std::move(request)),
                          opts);
  if (!reply) return reply.error();
  return std::move(reply.value().payload);
}

namespace {
Packer fs_prologue(FsOp op, const std::string& path) {
  Packer p;
  p.put_u64(static_cast<std::uint64_t>(op));
  p.put_string(path);
  return p;
}
}  // namespace

ntcs::Status FileClient::write(const std::string& path, ntcs::BytesView data) {
  Packer p = fs_prologue(FsOp::write, path);
  p.put_bytes(data);
  auto body = call(std::move(p).take());
  if (!body) return body.error();
  Unpacker u(body.value());
  if (auto err = check_status(u)) return *err;
  return ntcs::Status::success();
}

ntcs::Status FileClient::append(const std::string& path,
                                ntcs::BytesView data) {
  Packer p = fs_prologue(FsOp::append, path);
  p.put_bytes(data);
  auto body = call(std::move(p).take());
  if (!body) return body.error();
  Unpacker u(body.value());
  if (auto err = check_status(u)) return *err;
  return ntcs::Status::success();
}

ntcs::Result<ntcs::Bytes> FileClient::read(const std::string& path) {
  auto body = call(std::move(fs_prologue(FsOp::read, path)).take());
  if (!body) return body.error();
  Unpacker u(body.value());
  if (auto err = check_status(u)) return *err;
  return u.get_bytes();
}

ntcs::Result<ntcs::Bytes> FileClient::read_range(const std::string& path,
                                                 std::uint64_t offset,
                                                 std::uint64_t len) {
  Packer p = fs_prologue(FsOp::read_range, path);
  p.put_u64(offset);
  p.put_u64(len);
  auto body = call(std::move(p).take());
  if (!body) return body.error();
  Unpacker u(body.value());
  if (auto err = check_status(u)) return *err;
  return u.get_bytes();
}

ntcs::Status FileClient::remove(const std::string& path) {
  auto body = call(std::move(fs_prologue(FsOp::remove, path)).take());
  if (!body) return body.error();
  Unpacker u(body.value());
  if (auto err = check_status(u)) return *err;
  return ntcs::Status::success();
}

ntcs::Result<FileInfo> FileClient::stat(const std::string& path) {
  auto body = call(std::move(fs_prologue(FsOp::stat, path)).take());
  if (!body) return body.error();
  Unpacker u(body.value());
  if (auto err = check_status(u)) return *err;
  return get_info(u);
}

ntcs::Result<std::vector<FileInfo>> FileClient::list(
    const std::string& prefix) {
  auto body = call(std::move(fs_prologue(FsOp::list, prefix)).take());
  if (!body) return body.error();
  Unpacker u(body.value());
  if (auto err = check_status(u)) return *err;
  auto n = u.get_u64();
  if (!n) return n.error();
  if (n.value() > 1000000) {
    return ntcs::Error(ntcs::Errc::bad_message, "absurd listing");
  }
  std::vector<FileInfo> out;
  out.reserve(n.value());
  for (std::uint64_t i = 0; i < n.value(); ++i) {
    auto info = get_info(u);
    if (!info) return info.error();
    out.push_back(std::move(info.value()));
  }
  return out;
}

}  // namespace ntcs::drts
