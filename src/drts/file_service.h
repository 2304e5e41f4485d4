// file_service.h — the DRTS distributed file service (paper §1.2).
//
// "This includes such services as distributed process management, file
// service, time service, and monitoring." The file service is the classic
// DRTS building block the URSA testbed used for document storage behind
// its servers: a flat in-memory store addressed by pathname, accessed over
// ordinary NTCS request/reply with a packed-mode protocol.
//
// Like every DRTS service it is an ordinary module: locatable by name,
// relocatable by the process controller (state is lost on relocation —
// recovery of module state belongs to transaction management, §3.5).
#pragma once

#include <map>
#include <memory>

#include "common/annotated.h"
#include "core/node.h"

namespace ntcs::drts {

inline constexpr std::string_view kFileServiceName = "file-service";

/// Maximum size of a stored file (keeps a rogue client from ballooning the
/// in-memory store; generous for testbed use).
inline constexpr std::size_t kMaxFileSize = 4 << 20;

struct FileInfo {
  std::string path;
  std::uint64_t size = 0;
  std::uint64_t version = 0;  // bumped on every write
};

class FileServer {
 public:
  explicit FileServer(core::NodeConfig cfg);
  ~FileServer();

  FileServer(const FileServer&) = delete;
  FileServer& operator=(const FileServer&) = delete;

  ntcs::Status start();
  void stop() { node_->stop(); }

  core::Node& node() { return *node_; }

  // Local introspection.
  std::size_t file_count() const;
  std::uint64_t bytes_stored() const;

 private:
  struct Entry {
    ntcs::Bytes data;
    std::uint64_t version = 0;
  };

  ntcs::Bytes handle(ntcs::BytesView request);

  std::unique_ptr<core::Node> node_;
  mutable ntcs::Mutex mu_{ntcs::lockrank::kDrtsServer, "drts.file_service"};
  std::map<std::string, Entry> files_ GUARDED_BY(mu_);
};

/// Client-side API bound to one module's Node.
class FileClient {
 public:
  explicit FileClient(core::Node& node);

  /// Resolve the file service by name (once; relocation is transparent).
  ntcs::Status connect();

  /// Create or overwrite a file.
  ntcs::Status write(const std::string& path, ntcs::BytesView data);
  /// Append to a file (creates it if absent).
  ntcs::Status append(const std::string& path, ntcs::BytesView data);
  ntcs::Result<ntcs::Bytes> read(const std::string& path);
  /// Read a byte range [offset, offset+len).
  ntcs::Result<ntcs::Bytes> read_range(const std::string& path,
                                       std::uint64_t offset,
                                       std::uint64_t len);
  ntcs::Status remove(const std::string& path);
  ntcs::Result<FileInfo> stat(const std::string& path);
  /// All paths with the given prefix.
  ntcs::Result<std::vector<FileInfo>> list(const std::string& prefix);

  bool connected() const { return server_.valid(); }

 private:
  ntcs::Result<ntcs::Bytes> call(ntcs::Bytes request);

  core::Node& node_;
  core::UAdd server_;
};

}  // namespace ntcs::drts
