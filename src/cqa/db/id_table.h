#ifndef CQA_DB_ID_TABLE_H_
#define CQA_DB_ID_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace cqa {

/// An open-addressing hash set of non-negative int32 ids whose keys live
/// elsewhere: the caller passes each id's 32-bit hash and, for a lookup, an
/// equality test that resolves an id to its key. One flat array of
/// trivially copyable slots (power-of-two capacity, linear probing,
/// backward-shift deletion, the full hash stored per slot), so copying a
/// table is one allocation and a memcpy, a probe compares stored hashes
/// before it touches a key, and growth rehashes from the stored hashes.
class IdTable {
 public:
  size_t size() const { return size_; }

  /// The id entered under `hash` for which `eq(id)` holds, or -1.
  template <typename Eq>
  int32_t Find(uint32_t hash, Eq eq) const {
    if (slots_.empty()) return -1;
    const size_t mask = slots_.size() - 1;
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
      const Slot& s = slots_[i];
      if (s.id < 0) return -1;
      if (s.hash == hash && eq(s.id)) return s.id;
    }
  }

  /// Enters `id` under `hash`. The caller guarantees that no entry with an
  /// equal key is present.
  void Insert(uint32_t hash, int32_t id) {
    // Load factor at most 3/4: probe runs stay short under linear probing.
    if ((size_ + 1) * 4 > slots_.size() * 3) Grow();
    const size_t mask = slots_.size() - 1;
    size_t i = hash & mask;
    while (slots_[i].id >= 0) i = (i + 1) & mask;
    slots_[i] = Slot{hash, id};
    ++size_;
  }

  /// Removes the entry `id`, entered under `hash`; it must be present.
  /// Backward shift: every later entry of the probe run that may move into
  /// the hole does, so no tombstones accumulate.
  void Erase(uint32_t hash, int32_t id) {
    const size_t mask = slots_.size() - 1;
    size_t hole = Locate(hash, id);
    for (size_t j = (hole + 1) & mask; slots_[j].id >= 0; j = (j + 1) & mask) {
      // The entry at j may fill the hole iff its home slot does not lie
      // cyclically in (hole, j].
      const size_t home = slots_[j].hash & mask;
      if (((j - home) & mask) >= ((j - hole) & mask)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole].id = -1;
    --size_;
  }

  /// Renames the present entry `from`, entered under `hash`, to `to`.
  void Rename(uint32_t hash, int32_t from, int32_t to) {
    slots_[Locate(hash, from)].id = to;
  }

 private:
  struct Slot {
    uint32_t hash = 0;
    int32_t id = -1;  // negative: empty
  };

  size_t Locate(uint32_t hash, int32_t id) const {
    const size_t mask = slots_.size() - 1;
    size_t i = hash & mask;
    while (slots_[i].id != id) i = (i + 1) & mask;
    return i;
  }

  void Grow() {
    std::vector<Slot> old(slots_.empty() ? 8 : 2 * slots_.size());
    old.swap(slots_);
    const size_t mask = slots_.size() - 1;
    for (const Slot& s : old) {
      if (s.id < 0) continue;
      size_t i = s.hash & mask;
      while (slots_[i].id >= 0) i = (i + 1) & mask;
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
};

}  // namespace cqa

#endif  // CQA_DB_ID_TABLE_H_
