// Channel tests: the coordinator's non-blocking socket path (queue / flush /
// drain) over real in-process socketpairs — no fork — so the sanitizer jobs
// cover it without multi-process machinery.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <memory>
#include <vector>

#include "jade/cluster/channel.hpp"
#include "jade/support/error.hpp"

namespace jade::cluster {
namespace {

std::vector<std::byte> bytes_of(std::initializer_list<int> xs) {
  std::vector<std::byte> out;
  for (int x : xs) out.push_back(static_cast<std::byte>(x));
  return out;
}

/// One socketpair: `coord_` is a non-blocking coordinator-side Channel; the
/// test writes raw bytes into (or reads them from) the other end.
class ChannelFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    coord_ = std::make_unique<Channel>(sv[0]);
    peer_ = std::make_unique<Channel>(sv[1]);
    coord_->set_nonblocking();
    peer_->set_nonblocking();
  }

  /// Writes `bytes` into the peer end as one raw send.
  void peer_write(const std::byte* bytes, std::size_t n) {
    ASSERT_EQ(::send(peer_->fd(), bytes, n, MSG_NOSIGNAL),
              static_cast<ssize_t>(n));
  }

  std::unique_ptr<Channel> coord_;
  std::unique_ptr<Channel> peer_;
};

TEST_F(ChannelFixture, QueuedFramesArriveInOrder) {
  coord_->queue(FrameType::kDispatch, bytes_of({1, 2, 3}));
  coord_->queue(FrameType::kHeartbeat, {});
  coord_->queue(FrameType::kShutdown, bytes_of({9}));
  EXPECT_TRUE(coord_->want_write());
  ASSERT_TRUE(coord_->flush());
  EXPECT_FALSE(coord_->want_write());
  EXPECT_EQ(coord_->tx_frames(), 3u);

  std::vector<Frame> frames;
  ASSERT_TRUE(peer_->drain(frames));
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0].type, FrameType::kDispatch);
  EXPECT_EQ(frames[0].payload, bytes_of({1, 2, 3}));
  EXPECT_EQ(frames[1].type, FrameType::kHeartbeat);
  EXPECT_TRUE(frames[1].payload.empty());
  EXPECT_EQ(frames[2].type, FrameType::kShutdown);
  EXPECT_EQ(frames[2].payload, bytes_of({9}));
  EXPECT_EQ(peer_->rx_frames(), 3u);
}

TEST_F(ChannelFixture, FrameSplitAcrossWritesReassembles) {
  const std::vector<std::byte> frame =
      encode_frame(FrameType::kDone, bytes_of({4, 5, 6, 7, 8}));
  // Split inside the header, so neither half parses on its own.
  const std::size_t cut = kFrameHeaderBytes / 2;
  std::vector<Frame> frames;
  peer_write(frame.data(), cut);
  ASSERT_TRUE(coord_->drain(frames));
  EXPECT_TRUE(frames.empty());
  EXPECT_EQ(coord_->rx_frames(), 0u);

  peer_write(frame.data() + cut, frame.size() - cut);
  ASSERT_TRUE(coord_->drain(frames));
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, FrameType::kDone);
  EXPECT_EQ(frames[0].payload, bytes_of({4, 5, 6, 7, 8}));
  EXPECT_EQ(coord_->rx_frames(), 1u);
  EXPECT_EQ(coord_->rx_bytes(), frame.size());
}

TEST_F(ChannelFixture, EofMidFrameIsCleanClose) {
  const std::vector<std::byte> frame =
      encode_frame(FrameType::kDone, bytes_of({1, 2, 3, 4}));
  // The header arrives whole, the payload only in part: the peer died
  // mid-write.
  peer_write(frame.data(), kFrameHeaderBytes + 2);
  peer_->close();
  std::vector<Frame> frames;
  EXPECT_FALSE(coord_->drain(frames));
  EXPECT_TRUE(frames.empty());
  EXPECT_EQ(coord_->rx_frames(), 0u);
}

TEST_F(ChannelFixture, GarbageRaisesProtocolError) {
  std::vector<std::byte> junk(kFrameHeaderBytes, std::byte{0xAB});
  peer_write(junk.data(), junk.size());
  std::vector<Frame> frames;
  EXPECT_THROW(coord_->drain(frames), ProtocolError);
  EXPECT_TRUE(frames.empty());
}

}  // namespace
}  // namespace jade::cluster
