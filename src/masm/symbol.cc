#include "masm/symbol.hh"

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "support/logging.hh"

namespace swapram::masm {

namespace {

constexpr unsigned kChunkBits = 10;
constexpr std::uint32_t kChunkSize = 1u << kChunkBits;
constexpr std::uint32_t kMaxChunks = 1u << 14;
constexpr std::uint32_t kFirstCapacity = 1u << 12;

/** Names kChunkSize ids at a time; a chunk never moves. */
struct Chunk {
    std::string names[kChunkSize];
};

/** An open-addressing table of ids. A slot holds the high half of the
 *  name's hash above the id (0: empty), so a probe rejects most other
 *  names without reading them. */
struct Table {
    explicit Table(std::uint32_t capacity)
        : mask(capacity - 1),
          slots(new std::atomic<std::uint64_t>[capacity])
    {
        for (std::uint32_t i = 0; i < capacity; ++i)
            slots[i].store(0, std::memory_order_relaxed);
    }

    std::uint32_t mask;
    std::unique_ptr<std::atomic<std::uint64_t>[]> slots;
};

std::uint64_t
hashName(std::string_view name)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : name) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    h ^= h >> 29;
    h *= 0xbf58476d1ce4e5b9ull;
    return h ^ (h >> 32);
}

std::uint64_t
slotOf(std::uint64_t hash, std::uint32_t id)
{
    return (hash >> 32 << 32) | id;
}

class Interner
{
  public:
    Interner()
    {
        chunks_[0].store(new Chunk, std::memory_order_relaxed);
    }

    /** The id of @p name in the published table, or 0. Lock-free. */
    std::uint32_t
    find(std::string_view name, std::uint64_t hash) const
    {
        const Table *t = table_.load(std::memory_order_acquire);
        return t ? probe(*t, name, hash) : 0;
    }

    std::uint32_t
    intern(std::string_view name)
    {
        if (name.empty())
            return 0;
        const std::uint64_t hash = hashName(name);
        if (std::uint32_t id = find(name, hash))
            return id;

        std::lock_guard<std::mutex> lock(mutex_);
        Table *t = table_.load(std::memory_order_relaxed);
        if (t) {
            if (std::uint32_t id = probe(*t, name, hash))
                return id;
        }
        const std::uint32_t id = next_.load(std::memory_order_relaxed);
        const std::uint32_t c = id >> kChunkBits;
        if (c >= kMaxChunks)
            support::panic("symbol interner: too many names");
        Chunk *chunk = chunks_[c].load(std::memory_order_relaxed);
        if (!chunk) {
            chunk = new Chunk;
            chunks_[c].store(chunk, std::memory_order_release);
        }
        chunk->names[id & (kChunkSize - 1)] = std::string(name);
        // Raise the bound before the id can be found: a reader that
        // acquires the slot below then sees bound() > id, so a table it
        // sized with bound() covers the id.
        next_.store(id + 1, std::memory_order_release);

        // Keep the load at most one half: past it, publish a table of
        // twice the size. Readers still probing the old one find
        // nothing new there and retry under the lock.
        if (!t || 2 * static_cast<std::uint64_t>(id) > t->mask + 1u) {
            auto grown = std::make_unique<Table>(
                t ? 2 * (t->mask + 1) : kFirstCapacity);
            for (std::uint32_t old = 1; old < id; ++old)
                place(*grown, hashName(nameOf(old)), old);
            place(*grown, hash, id);
            table_.store(grown.get(), std::memory_order_release);
            tables_.push_back(std::move(grown));
        } else {
            place(*t, hash, id);
        }
        return id;
    }

    const std::string &
    nameOf(std::uint32_t id) const
    {
        return chunks_[id >> kChunkBits]
            .load(std::memory_order_acquire)
            ->names[id & (kChunkSize - 1)];
    }

    std::uint32_t
    bound() const
    {
        return next_.load(std::memory_order_acquire);
    }

  private:
    std::uint32_t
    probe(const Table &t, std::string_view name, std::uint64_t hash) const
    {
        const std::uint64_t tag = hash >> 32;
        for (std::uint32_t i = static_cast<std::uint32_t>(hash) & t.mask;;
             i = (i + 1) & t.mask) {
            const std::uint64_t s =
                t.slots[i].load(std::memory_order_acquire);
            if (s == 0)
                return 0;
            const auto id = static_cast<std::uint32_t>(s);
            if (s >> 32 == tag && nameOf(id) == name)
                return id;
        }
    }

    static void
    place(Table &t, std::uint64_t hash, std::uint32_t id)
    {
        std::uint32_t i = static_cast<std::uint32_t>(hash) & t.mask;
        while (t.slots[i].load(std::memory_order_relaxed) != 0)
            i = (i + 1) & t.mask;
        t.slots[i].store(slotOf(hash, id), std::memory_order_release);
    }

    std::atomic<Table *> table_{nullptr};
    std::atomic<Chunk *> chunks_[kMaxChunks] = {};
    std::atomic<std::uint32_t> next_{1};
    std::mutex mutex_;
    /** Every table published, the current one last. Superseded tables
     *  stay: a reader may still be probing one. */
    std::vector<std::unique_ptr<Table>> tables_;
};

/** The process's interner. Never destroyed, so names stay valid in
 *  static destructors too. */
Interner &
interner()
{
    static Interner *const instance = new Interner;
    return *instance;
}

} // namespace

Symbol::Symbol(std::string_view name) : id_(interner().intern(name)) {}

Symbol
Symbol::find(std::string_view name)
{
    if (name.empty())
        return Symbol();
    return Symbol(interner().find(name, hashName(name)));
}

std::uint32_t
Symbol::bound()
{
    return interner().bound();
}

const std::string &
Symbol::str() const
{
    return interner().nameOf(id_);
}

} // namespace swapram::masm
