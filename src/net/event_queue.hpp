// EventQueue — the timed-event queue both transports run on.
//
// SimNetwork queues its datagram deliveries and timers in one, the wire
// EventLoop only its timers. Entries pop in (due, sequence) order, and
// every push draws the next sequence, so entries due at the same time pop
// in push order and the order never depends on slot numbering or on which
// cancelled entries left early.
//
// Timer ids keep the Transport timer-id contract (net/transport.hpp). An id
// is the slot the timer occupies plus the generation that slot had when the
// timer was pushed (generation << 32 | slot, never 0). A slot's generation
// advances each time it takes a new timer, so an id goes stale when its
// timer pops or is cancelled and stays stale after the slot is reused.
// Push, cancel and pop keep no per-timer set, so they allocate nothing
// beyond growing the slot table.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "net/transport.hpp"

namespace dnsboot::net {

template <class Payload>
class EventQueue {
 public:
  void reserve(std::size_t entries) {
    heap_.reserve(entries);
    slots_.reserve(entries);
  }

  bool empty() const { return heap_.empty(); }
  // Due time of the earliest entry. The queue must not be empty.
  SimTime next_due() const { return heap_.front().due; }
  // Timers pushed by push_timer() that have neither popped nor been
  // cancelled. Entries queued with push() are not counted.
  std::size_t live_timers() const { return live_timers_; }

  // Queue an entry that takes no id and cannot be cancelled.
  void push(SimTime due, Payload payload) { insert(due, std::move(payload)); }

  // Queue a timer and return its id (see the contract above).
  std::uint64_t push_timer(SimTime due, Payload payload) {
    const std::uint32_t slot = insert(due, std::move(payload));
    SlotState& state = state_[slot];
    // Generation 0 is never issued, so no id is 0.
    if (++state.generation == 0) state.generation = 1;
    state.live = true;
    ++live_timers_;
    return std::uint64_t{state.generation} << 32 | slot;
  }

  // Take a live timer out of the queue in O(log n) and destroy its payload.
  // Returns the cancelled timer's due time, or nothing for a stale id.
  std::optional<SimTime> cancel(std::uint64_t timer_id) {
    const auto slot = static_cast<std::uint32_t>(timer_id);
    if (slot >= state_.size()) return std::nullopt;
    SlotState& state = state_[slot];
    if (!state.live || state.generation != timer_id >> 32) return std::nullopt;
    state.live = false;
    --live_timers_;
    const SimTime due = heap_[state.heap_index].due;
    remove_at(state.heap_index);
    free_slots_.push_back(slot);
    // The payload dies at the end of this call, after the queue is whole
    // again, so a destructor that pushes or cancels sees a valid state.
    const Payload dead = std::exchange(slots_[slot], Payload{});
    return due;
  }

  // Remove the earliest entry and return its payload. The queue must not be
  // empty. A timer's id is stale from here on.
  Payload pop() {
    const std::uint32_t slot = heap_.front().slot;
    remove_at(0);
    SlotState& state = state_[slot];
    if (state.live) {
      state.live = false;
      --live_timers_;
    }
    free_slots_.push_back(slot);
    return std::move(slots_[slot]);
  }

 private:
  // What the heap sifts: a trivially-copyable stub pointing at the payload's
  // slot, so a sift copies 24 bytes instead of moving a payload.
  struct Entry {
    SimTime due;
    std::uint64_t sequence;
    std::uint32_t slot;

    bool before(const Entry& other) const {
      return due != other.due ? due < other.due : sequence < other.sequence;
    }
  };
  // Per-slot state, parallel to slots_: where the slot's entry sits in the
  // heap, the generation of the slot's latest timer, and whether that timer
  // is still live.
  struct SlotState {
    std::uint32_t heap_index = 0;
    std::uint32_t generation = 0;
    bool live = false;
  };

  std::uint32_t insert(SimTime due, Payload&& payload) {
    Entry entry{due, next_sequence_++, 0};
    if (free_slots_.empty()) {
      entry.slot = static_cast<std::uint32_t>(slots_.size());
      slots_.push_back(std::move(payload));
      state_.emplace_back();
    } else {
      entry.slot = free_slots_.back();
      free_slots_.pop_back();
      slots_[entry.slot] = std::move(payload);
    }
    heap_.push_back(entry);
    sift_up(heap_.size() - 1);
    return entry.slot;
  }

  void place(std::size_t index, const Entry& entry) {
    heap_[index] = entry;
    state_[entry.slot].heap_index = static_cast<std::uint32_t>(index);
  }

  void sift_up(std::size_t index) {
    const Entry moving = heap_[index];
    while (index > 0) {
      const std::size_t parent = (index - 1) / 2;
      if (!moving.before(heap_[parent])) break;
      place(index, heap_[parent]);
      index = parent;
    }
    place(index, moving);
  }

  void sift_down(std::size_t index) {
    const Entry moving = heap_[index];
    const std::size_t size = heap_.size();
    for (;;) {
      std::size_t child = 2 * index + 1;
      if (child >= size) break;
      if (child + 1 < size && heap_[child + 1].before(heap_[child])) ++child;
      if (!heap_[child].before(moving)) break;
      place(index, heap_[child]);
      index = child;
    }
    place(index, moving);
  }

  void remove_at(std::size_t index) {
    const Entry last = heap_.back();
    heap_.pop_back();
    if (index == heap_.size()) return;
    heap_[index] = last;
    if (index > 0 && last.before(heap_[(index - 1) / 2])) {
      sift_up(index);
    } else {
      sift_down(index);
    }
  }

  std::uint64_t next_sequence_ = 1;
  // Binary min-heap on (due, sequence). Payloads live in slots_ and are
  // reused through the free list.
  std::vector<Entry> heap_;
  std::vector<Payload> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<SlotState> state_;
  std::size_t live_timers_ = 0;
};

}  // namespace dnsboot::net
