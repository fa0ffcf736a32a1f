/**
 * @file
 * Bidirectional binary state serializer for checkpoint/restore.
 *
 * One visitor drives all three checkpoint operations: kSave appends every
 * visited field to a byte buffer, kLoad reads the same fields back in the
 * same order, and kHash folds them into an FNV-1a digest without storing
 * anything. Components implement a single serializeState(StateSerializer&)
 * method, so the save, load and hash walks can never disagree about field
 * order -- the classic source of checkpoint corruption.
 *
 * The stream is structured with 32-bit section tags: on save a tag is
 * written, on load it is checked, so a component that drifts out of sync
 * fails immediately with a precise diagnosis instead of silently loading
 * garbage into a neighbor's state. All multi-byte values use the host's
 * little-endian layout (checkpoints are host-local artifacts, not an
 * interchange format; the file header's magic detects an endianness
 * mismatch anyway).
 *
 * Load errors never panic: a truncated or corrupt checkpoint sets a sticky
 * error flag and every subsequent read yields zeros, so the caller can
 * reject the file and fall back to an older checkpoint -- exactly what the
 * resilient campaign runner needs.
 */

#ifndef NORD_CKPT_STATE_SERIALIZER_HH
#define NORD_CKPT_STATE_SERIALIZER_HH

#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/fnv.hh"
#include "common/types.hh"

namespace nord {

class Rng;
struct Flit;
struct PacketDescriptor;

/** What a serialization walk does with the visited fields. */
enum class SerialMode : std::int8_t
{
    kSave,  ///< append fields to the byte buffer
    kLoad,  ///< read fields back from the byte buffer
    kHash,  ///< fold fields into an FNV-1a digest (nothing stored)
};

/**
 * The visitor handed to every component's serializeState() (see file
 * comment).
 */
class StateSerializer
{
  public:
    /** Start a save or hash walk. */
    explicit StateSerializer(SerialMode mode);

    /** Start a load walk over @p payload. */
    explicit StateSerializer(std::vector<std::uint8_t> payload);

    SerialMode mode() const { return mode_; }
    bool loading() const { return mode_ == SerialMode::kLoad; }

    /** False once any structural error occurred (sticky). */
    bool ok() const { return error_.empty(); }

    /** Description of the first structural error ("" when ok). */
    const std::string &error() const { return error_; }

    /** Record a structural error (first one wins). */
    void fail(const std::string &what);

    /**
     * Structure marker: saved as a 32-bit tag, checked on load. Use a
     * four-character constant per component/section.
     */
    void section(std::uint32_t tag);

    /** Four-character section tag, e.g. tag4("RTR "). */
    static constexpr std::uint32_t tag4(const char (&s)[5])
    {
        return static_cast<std::uint32_t>(
                   static_cast<unsigned char>(s[0])) |
               (static_cast<std::uint32_t>(
                    static_cast<unsigned char>(s[1])) << 8) |
               (static_cast<std::uint32_t>(
                    static_cast<unsigned char>(s[2])) << 16) |
               (static_cast<std::uint32_t>(
                    static_cast<unsigned char>(s[3])) << 24);
    }

    // --- Scalar fields -----------------------------------------------------
    /** Integral or enum field, stored at its native width. */
    template <typename T,
              typename = std::enable_if_t<std::is_integral_v<T> ||
                                          std::is_enum_v<T>>>
    void io(T &v)
    {
        bytes(&v, sizeof(T));
    }

    /** Bools are stored as one byte (vector<bool> proxies need ioBool). */
    void io(bool &v)
    {
        std::uint8_t b = v ? 1 : 0;
        bytes(&b, 1);
        if (loading())
            v = b != 0;
    }

    /** Doubles are stored by bit pattern: restore is exact. */
    void io(double &v)
    {
        static_assert(sizeof(double) == sizeof(std::uint64_t));
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        bytes(&bits, sizeof(bits));
        if (loading())
            std::memcpy(&v, &bits, sizeof(bits));
    }

    void io(std::string &v);

    /** RNG engine state (via Rng's raw state accessors). */
    void io(Rng &rng);

    /** Every field of one flit. */
    void io(Flit &f);

    /** A workload packet descriptor. */
    void io(PacketDescriptor &d);

    // --- Containers --------------------------------------------------------
    /**
     * Size-prefixed sequence (vector, deque, ring) of io()-able
     * elements. On load the container is cleared and refilled.
     */
    template <typename C>
    void ioSequence(C &c)
    {
        std::uint64_t n = c.size();
        io(n);
        if (loading()) {
            c.clear();
            for (std::uint64_t i = 0; i < n && ok(); ++i) {
                typename C::value_type v{};
                io(v);
                c.push_back(std::move(v));
            }
        } else {
            for (auto &v : c)
                io(v);
        }
    }

    /**
     * Sequence of aggregate elements serialized by @p fn(elem). Use for
     * structs private to one component.
     */
    template <typename C, typename Fn>
    void ioSequence(C &c, Fn &&fn)
    {
        std::uint64_t n = c.size();
        io(n);
        if (loading()) {
            c.clear();
            for (std::uint64_t i = 0; i < n && ok(); ++i) {
                typename C::value_type v{};
                fn(v);
                c.push_back(std::move(v));
            }
        } else {
            for (auto &v : c)
                fn(v);
        }
    }

    /** std::vector<bool> (proxy references prevent the generic path). */
    void io(std::vector<bool> &v)
    {
        std::uint64_t n = v.size();
        io(n);
        if (loading())
            v.assign(n, false);
        for (std::uint64_t i = 0; i < n && ok(); ++i) {
            bool b = loading() ? false : static_cast<bool>(v[i]);
            io(b);
            if (loading())
                v[i] = b;
        }
    }

    /**
     * Ordered map with io()-able keys and values serialized by
     * @p valueFn(value). Iteration order of std::map is already
     * deterministic.
     */
    template <typename K, typename V, typename Fn>
    void ioMap(std::map<K, V> &m, Fn &&valueFn)
    {
        std::uint64_t n = m.size();
        io(n);
        if (loading()) {
            m.clear();
            for (std::uint64_t i = 0; i < n && ok(); ++i) {
                K k{};
                io(k);
                V v{};
                valueFn(v);
                m.emplace(std::move(k), std::move(v));
            }
        } else {
            for (auto &kv : m) {
                K k = kv.first;
                io(k);
                valueFn(kv.second);
            }
        }
    }

    /** Ordered map with io()-able values. */
    template <typename K, typename V>
    void ioMap(std::map<K, V> &m)
    {
        ioMap(m, [this](V &v) { io(v); });
    }

    // --- Results ------------------------------------------------------------
    /** Serialized bytes (kSave mode). */
    const std::vector<std::uint8_t> &buffer() const { return buf_; }

    /** Move the serialized bytes out (kSave mode). */
    std::vector<std::uint8_t> takeBuffer() { return std::move(buf_); }

    /** FNV-1a digest of every byte visited so far (kHash mode). */
    std::uint64_t hash() const { return hash_; }

    /** Bytes consumed so far (kLoad mode). */
    std::size_t cursor() const { return cursor_; }

    /** True when a load walk consumed the payload exactly. */
    bool exhausted() const
    {
        return loading() && cursor_ == buf_.size();
    }

  private:
    /** Core primitive: append, read or hash @p n raw bytes at @p p. */
    void bytes(void *p, std::size_t n);

    SerialMode mode_;
    std::vector<std::uint8_t> buf_;
    std::size_t cursor_ = 0;
    std::uint64_t hash_ = kFnvOffset;
    std::string error_;
};

}  // namespace nord

#endif  // NORD_CKPT_STATE_SERIALIZER_HH
