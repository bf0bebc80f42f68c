#ifndef CHARLES_NET_IO_H_
#define CHARLES_NET_IO_H_

/// \file
/// \brief EINTR-safe whole-buffer I/O over POSIX file descriptors.
///
/// Every byte stream ChARLES ships results over — the RemoteBackend TCP
/// connection and the worker's side of it — needs the same two loops: write
/// everything (retrying short writes and EINTR) and read exactly n bytes.
/// They are extracted here so the retry-on-partial discipline exists exactly
/// once; the frame layer builds on these instead of re-implementing them per
/// call site.

#include <cstddef>
#include <string>

#include "common/status.h"

namespace charles {
namespace net {

/// Writes the whole buffer to `fd`, retrying on EINTR and short writes.
/// Fails with IOError on any unrecoverable write error (e.g. the peer died
/// and closed the read end).
Status WriteFull(int fd, const void* data, size_t size);

/// Reads exactly `size` bytes into `data`, retrying on EINTR and short
/// reads. EOF before `size` bytes arrived is an IOError — a frame that ends
/// mid-payload means the peer died or the stream is torn.
Status ReadFull(int fd, void* data, size_t size);

}  // namespace net
}  // namespace charles

#endif  // CHARLES_NET_IO_H_
