#include "net/io.h"

#include <errno.h>
#include <string.h>
#include <unistd.h>

namespace charles {
namespace net {

Status WriteFull(int fd, const void* data, size_t size) {
  const char* at = static_cast<const char*>(data);
  while (size > 0) {
    ssize_t written = ::write(fd, at, size);
    if (written < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("WriteFull: ") + ::strerror(errno));
    }
    at += written;
    size -= static_cast<size_t>(written);
  }
  return Status::OK();
}

Status ReadFull(int fd, void* data, size_t size) {
  char* at = static_cast<char*>(data);
  while (size > 0) {
    ssize_t got = ::read(fd, at, size);
    if (got < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("ReadFull: ") + ::strerror(errno));
    }
    if (got == 0) {
      return Status::IOError("ReadFull: unexpected EOF with " +
                             std::to_string(size) + " bytes still expected");
    }
    at += got;
    size -= static_cast<size_t>(got);
  }
  return Status::OK();
}

}  // namespace net
}  // namespace charles
