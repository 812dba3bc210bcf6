// Workspace: a per-thread, grown-once scratch arena for every hot path.
//
// Before this arena, each call to conv2d_forward, dynamic_routing, the
// ConvCaps3D vote kernels, and the approximate-LUT convolution paid the
// allocator for fresh std::vector scratch — on a sweep of thousands of
// grid points, millions of transient heap round-trips. A Workspace keeps
// a small list of capacity blocks that only ever grow; allocations are
// pointer bumps, deallocation is a cursor rewind, and after the first few
// calls of any workload the arena reaches steady state and the hot paths
// never touch the allocator again.
//
// Keying: one arena per thread via Workspace::tls(). Every execution
// context in the codebase — compute-pool workers running kernel chunks or
// sweep points (util/pool), the thread that starts a region,
// serve::InferenceServer batch loops — is a thread, so thread-locality is
// exactly "one workspace per worker" and no locking is ever needed.
//
// Discipline: allocations are scoped. A Workspace::Scope records the
// cursor at construction and rewinds it at destruction, so usage nests
// like a call stack (conv -> routing -> gemm packing all stack cleanly,
// including a pool region, whose chunks open scopes on the arena of
// whichever thread runs them). Pointers from an inner scope must not
// outlive it; blocks are stable, so pointers never move within a scope
// even when later allocations grow the arena.
//
// Determinism: the arena hands out memory, never values — buffers are
// returned uninitialized and every consumer fully writes (or memsets)
// what it reads, so reuse cannot leak state between sweep points or
// served batches. Nothing here affects the bit-identity guarantees of
// the sweep engine or the serving runtime.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace redcane::ws {

class Workspace {
 public:
  Workspace() = default;
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// The calling thread's arena (created on first use).
  static Workspace& tls();

  /// RAII cursor mark: rewinds all allocations made after construction.
  class Scope {
   public:
    explicit Scope(Workspace& w) : w_(w), block_(w.cursor_block_), used_(w.cursor_used_) {}
    ~Scope() { w_.rewind(block_, used_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Workspace& w_;
    std::size_t block_;
    std::size_t used_;
  };

  /// Uninitialized, 64-byte-aligned buffer of `count` T, valid until the
  /// enclosing Scope ends. T must be trivially destructible.
  template <typename T>
  [[nodiscard]] T* alloc(std::size_t count) {
    static_assert(std::is_trivially_destructible_v<T>);
    return static_cast<T*>(raw_alloc(count * sizeof(T)));
  }

  /// Pre-grows the arena so the first real allocation is warm (used by
  /// long-lived workers to keep cold-start latency off the first batch).
  void reserve(std::size_t bytes);

  /// Total capacity across blocks [bytes].
  [[nodiscard]] std::size_t reserved_bytes() const;

 private:
  struct Block {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
  };

  void* raw_alloc(std::size_t bytes);
  void rewind(std::size_t block, std::size_t used);

  std::vector<Block> blocks_;
  std::size_t cursor_block_ = 0;  ///< Block the next allocation tries first.
  std::size_t cursor_used_ = 0;   ///< Bytes consumed in that block.
};

}  // namespace redcane::ws
