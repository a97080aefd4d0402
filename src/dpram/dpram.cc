#include "dpram/dpram.h"

#include <stdexcept>
#include <string>

namespace osiris::dpram {

std::uint32_t DualPortRam::read(Side side, std::uint32_t word_index) const {
  if (word_index >= kDpramWords) {
    throw std::out_of_range("DualPortRam: read past end: " + std::to_string(word_index));
  }
  (side == Side::kHost ? host_accesses_ : board_accesses_)++;
  if (fault::fires(faults_, fault::Point::kDpramStale) &&
      prev_words_[word_index] != words_[word_index]) {
    ++stale_reads_;
    return prev_words_[word_index];
  }
  return words_[word_index];
}

void DualPortRam::write(Side side, std::uint32_t word_index, std::uint32_t value) {
  if (word_index >= kDpramWords) {
    throw std::out_of_range("DualPortRam: write past end: " + std::to_string(word_index));
  }
  (side == Side::kHost ? host_accesses_ : board_accesses_)++;
  prev_words_[word_index] = words_[word_index];
  words_[word_index] = value;
}

void DualPortRam::maybe_corrupt(Side side, std::uint32_t first_word,
                                std::uint32_t nwords) {
  if (!fault::fires(faults_, fault::Point::kDescCorrupt)) return;
  const auto w = first_word + static_cast<std::uint32_t>(faults_->roll(nwords));
  write(side, w, faults_->corrupt_word(words_[w]));
  ++corrupted_words_;
}

namespace {
// Descriptor slots per queue. A free or receive queue gets half a page,
// which holds up to 127.
constexpr std::uint32_t kQueueSlots = 64;
static_assert(3 + kQueueSlots * kDescriptorWords <= kPageWords / 2,
              "a free or receive queue must fit in half a page");
}  // namespace

ChannelLayout channel_layout(std::uint32_t index) {
  if (index >= kPagesPerHalf) {
    throw std::out_of_range("channel_layout: index " + std::to_string(index));
  }
  // Transmit half occupies words [0, 16K), receive half [16K, 32K); the
  // free and receive queues split their receive page.
  const std::uint32_t tx_page = index * kPageWords;
  const std::uint32_t rx_page = kPagesPerHalf * kPageWords + index * kPageWords;

  ChannelLayout cl;
  cl.tx = {tx_page, kQueueSlots};
  cl.free = {rx_page, kQueueSlots};
  cl.recv = {rx_page + kPageWords / 2, kQueueSlots};
  return cl;
}

}  // namespace osiris::dpram
