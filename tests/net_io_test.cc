/// \file
/// The net/ layer under RemoteBackend (ISSUE 6): EINTR-safe whole-buffer
/// I/O, endpoint parsing, deadline-bounded TCP primitives, and CNF1 frame
/// round trips — including the bounded-before-allocation length checks the
/// wire-safety contract requires.

#include <gtest/gtest.h>
#include <signal.h>
#include <unistd.h>

#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "net/frame.h"
#include "net/io.h"
#include "net/socket.h"

namespace charles {
namespace {

// --- Whole-buffer pipe I/O --------------------------------------------------

TEST(NetIoTest, WriteFullReadFullRoundTripOverPipe) {
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  std::string payload(100'000, 'x');
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>('a' + (i % 23));
  }
  std::thread writer([&]() {
    ASSERT_TRUE(net::WriteFull(fds[1], payload.data(), payload.size()).ok());
    close(fds[1]);
  });
  std::string read_back(payload.size(), '\0');
  Status status = net::ReadFull(fds[0], &read_back[0], read_back.size());
  writer.join();
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(read_back, payload);
  close(fds[0]);
}

TEST(NetIoTest, ReadFullFailsOnEarlyEof) {
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  ASSERT_TRUE(net::WriteFull(fds[1], "abc", 3).ok());
  close(fds[1]);  // only 3 of the 10 requested bytes will ever arrive
  char buffer[10];
  Status status = net::ReadFull(fds[0], buffer, sizeof(buffer));
  EXPECT_TRUE(status.IsIOError()) << status.ToString();
  close(fds[0]);
}

TEST(NetIoTest, WriteFullFailsWhenReadEndIsClosed) {
  // Writing into a read-closed pipe raises SIGPIPE; with it ignored (as a
  // daemon would), WriteFull must surface EPIPE as a clean IOError.
  struct sigaction ignore_pipe, old_pipe;
  std::memset(&ignore_pipe, 0, sizeof(ignore_pipe));
  ignore_pipe.sa_handler = SIG_IGN;
  ASSERT_EQ(sigaction(SIGPIPE, &ignore_pipe, &old_pipe), 0);
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  close(fds[0]);
  // Large enough to overflow the pipe buffer even if EPIPE were deferred.
  std::string payload(1 << 20, 'z');
  Status status = net::WriteFull(fds[1], payload.data(), payload.size());
  EXPECT_TRUE(status.IsIOError()) << status.ToString();
  close(fds[1]);
  ASSERT_EQ(sigaction(SIGPIPE, &old_pipe, nullptr), 0);
}

// --- Endpoint parsing -------------------------------------------------------

TEST(EndpointTest, ParsesHostPort) {
  net::Endpoint e = net::ParseEndpoint("127.0.0.1:9400").ValueOrDie();
  EXPECT_EQ(e.host, "127.0.0.1");
  EXPECT_EQ(e.port, 9400);
  EXPECT_EQ(e.ToString(), "127.0.0.1:9400");
  net::Endpoint named = net::ParseEndpoint("worker-3.cluster:65535").ValueOrDie();
  EXPECT_EQ(named.host, "worker-3.cluster");
  EXPECT_EQ(named.port, 65535);
}

TEST(EndpointTest, RejectsMalformedSpecs) {
  for (const char* bad : {"", "no-port", ":9400", "host:", "host:0",
                          "host:-1", "host:65536", "host:12abc", "host:port"}) {
    EXPECT_TRUE(net::ParseEndpoint(bad).status().IsInvalidArgument())
        << "spec: \"" << bad << "\"";
  }
}

// --- TCP primitives ---------------------------------------------------------

/// Listener on an ephemeral loopback port plus the two ends of one accepted
/// connection.
struct LoopbackPair {
  net::TcpListener listener;
  int client_fd = -1;
  int server_fd = -1;

  ~LoopbackPair() {
    net::CloseFd(client_fd);
    net::CloseFd(server_fd);
  }
};

void Connect(LoopbackPair* pair) {
  pair->listener = net::TcpListener::Bind("127.0.0.1", 0).ValueOrDie();
  ASSERT_GT(pair->listener.port(), 0);
  net::Endpoint endpoint{"127.0.0.1", pair->listener.port()};
  pair->client_fd = net::TcpConnect(endpoint, 2'000).ValueOrDie();
  pair->server_fd = pair->listener.AcceptWithTimeout(2'000).ValueOrDie();
  ASSERT_GE(pair->server_fd, 0);
}

TEST(TcpSocketTest, SendFullRecvFullRoundTrip) {
  LoopbackPair pair;
  Connect(&pair);
  std::string payload(50'000, '\0');
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>(i % 251);
  }
  ASSERT_TRUE(net::SendFull(pair.client_fd, payload.data(), payload.size()).ok());
  std::string read_back(payload.size(), '\0');
  Status status =
      net::RecvFull(pair.server_fd, &read_back[0], read_back.size(), 5'000);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(read_back, payload);
}

TEST(TcpSocketTest, RecvFullTimesOutWhenPeerIsSilent) {
  LoopbackPair pair;
  Connect(&pair);
  char buffer[16];
  Status status = net::RecvFull(pair.server_fd, buffer, sizeof(buffer), 100);
  EXPECT_TRUE(status.IsIOError()) << status.ToString();
}

TEST(TcpSocketTest, RecvFullFailsWhenPeerHangsUpMidMessage) {
  LoopbackPair pair;
  Connect(&pair);
  ASSERT_TRUE(net::SendFull(pair.client_fd, "abc", 3).ok());
  net::CloseFd(pair.client_fd);
  pair.client_fd = -1;
  char buffer[10];  // wants 10, gets 3 then EOF
  Status status = net::RecvFull(pair.server_fd, buffer, sizeof(buffer), 2'000);
  EXPECT_TRUE(status.IsIOError()) << status.ToString();
}

TEST(TcpSocketTest, ConnectToUnboundPortFailsCleanly) {
  // Bind an ephemeral port, remember it, close the listener: nobody listens
  // there anymore, so connect must be refused (not hang).
  int dead_port;
  {
    net::TcpListener listener = net::TcpListener::Bind("127.0.0.1", 0).ValueOrDie();
    dead_port = listener.port();
  }
  Status status =
      net::TcpConnect(net::Endpoint{"127.0.0.1", dead_port}, 2'000).status();
  EXPECT_TRUE(status.IsIOError()) << status.ToString();
}

TEST(TcpSocketTest, AcceptWithTimeoutReturnsMinusOneWhenNobodyConnects) {
  net::TcpListener listener = net::TcpListener::Bind("127.0.0.1", 0).ValueOrDie();
  int fd = listener.AcceptWithTimeout(50).ValueOrDie();
  EXPECT_EQ(fd, -1);
}

// --- CNF1 frames ------------------------------------------------------------

TEST(FrameTest, RoundTripPreservesTypeAndPayload) {
  LoopbackPair pair;
  Connect(&pair);
  std::string payload = "frame payload with \0 embedded";
  payload.push_back('\0');
  ASSERT_TRUE(net::WriteFrame(pair.client_fd, 42, payload).ok());
  ASSERT_TRUE(net::WriteFrame(pair.client_fd, 7, "").ok());
  net::Frame first =
      net::ReadFrame(pair.server_fd, 2'000, int64_t{1} << 20).ValueOrDie();
  EXPECT_EQ(first.type, 42);
  EXPECT_EQ(first.payload, payload);
  net::Frame second =
      net::ReadFrame(pair.server_fd, 2'000, int64_t{1} << 20).ValueOrDie();
  EXPECT_EQ(second.type, 7);
  EXPECT_TRUE(second.payload.empty());
}

TEST(FrameTest, RejectsBadMagic) {
  LoopbackPair pair;
  Connect(&pair);
  std::string junk = "XXXX";
  int32_t type = 1;
  int64_t length = 0;
  junk.append(reinterpret_cast<const char*>(&type), sizeof(type));
  junk.append(reinterpret_cast<const char*>(&length), sizeof(length));
  ASSERT_TRUE(net::SendFull(pair.client_fd, junk.data(), junk.size()).ok());
  Status status =
      net::ReadFrame(pair.server_fd, 2'000, int64_t{1} << 20).status();
  EXPECT_TRUE(status.IsIOError()) << status.ToString();
}

TEST(FrameTest, RejectsOverLengthPayloadBeforeAllocating) {
  LoopbackPair pair;
  Connect(&pair);
  // A legitimate header claiming an absurd payload: the reader must fail on
  // the length bound without trying to allocate 2^60 bytes.
  std::string header = "CNF1";
  int32_t type = 6;
  int64_t absurd = int64_t{1} << 60;
  header.append(reinterpret_cast<const char*>(&type), sizeof(type));
  header.append(reinterpret_cast<const char*>(&absurd), sizeof(absurd));
  ASSERT_TRUE(net::SendFull(pair.client_fd, header.data(), header.size()).ok());
  Status status =
      net::ReadFrame(pair.server_fd, 2'000, int64_t{1} << 20).status();
  EXPECT_TRUE(status.IsIOError()) << status.ToString();
}

TEST(FrameTest, RejectsNegativePayloadLength) {
  LoopbackPair pair;
  Connect(&pair);
  std::string header = "CNF1";
  int32_t type = 6;
  int64_t negative = -1;
  header.append(reinterpret_cast<const char*>(&type), sizeof(type));
  header.append(reinterpret_cast<const char*>(&negative), sizeof(negative));
  ASSERT_TRUE(net::SendFull(pair.client_fd, header.data(), header.size()).ok());
  Status status =
      net::ReadFrame(pair.server_fd, 2'000, int64_t{1} << 20).status();
  EXPECT_TRUE(status.IsIOError()) << status.ToString();
}

TEST(FrameTest, FailsCleanlyOnTornStream) {
  LoopbackPair pair;
  Connect(&pair);
  // A valid header promising 100 bytes, but the peer dies after 10.
  std::string header = "CNF1";
  int32_t type = 6;
  int64_t length = 100;
  header.append(reinterpret_cast<const char*>(&type), sizeof(type));
  header.append(reinterpret_cast<const char*>(&length), sizeof(length));
  header.append(10, 'p');
  ASSERT_TRUE(net::SendFull(pair.client_fd, header.data(), header.size()).ok());
  net::CloseFd(pair.client_fd);
  pair.client_fd = -1;
  Status status =
      net::ReadFrame(pair.server_fd, 2'000, int64_t{1} << 20).status();
  EXPECT_TRUE(status.IsIOError()) << status.ToString();
}

}  // namespace
}  // namespace charles
