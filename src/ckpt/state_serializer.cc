/**
 * @file
 * StateSerializer implementation.
 */

#include "ckpt/state_serializer.hh"

#include "common/flit.hh"
#include "common/log.hh"
#include "common/rng.hh"

namespace nord {

StateSerializer::StateSerializer(SerialMode mode)
    : mode_(mode)
{
    NORD_ASSERT(mode != SerialMode::kLoad,
                "load mode requires a payload buffer");
}

StateSerializer::StateSerializer(std::vector<std::uint8_t> payload)
    : mode_(SerialMode::kLoad),
      buf_(std::move(payload))
{
}

void
StateSerializer::fail(const std::string &what)
{
    if (error_.empty())
        error_ = what;
}

void
StateSerializer::bytes(void *p, std::size_t n)
{
    if (!ok()) {
        if (loading())
            std::memset(p, 0, n);
        return;
    }
    switch (mode_) {
      case SerialMode::kSave:
        buf_.insert(buf_.end(), static_cast<std::uint8_t *>(p),
                    static_cast<std::uint8_t *>(p) + n);
        break;
      case SerialMode::kLoad:
        if (cursor_ + n > buf_.size()) {
            fail(detail::formatString(
                "checkpoint truncated: need %zu bytes at offset %zu of %zu",
                n, cursor_, buf_.size()));
            std::memset(p, 0, n);
            return;
        }
        std::memcpy(p, buf_.data() + cursor_, n);
        cursor_ += n;
        break;
      case SerialMode::kHash:
        hash_ = fnv1aFold(hash_, p, n);
        break;
    }
}

void
StateSerializer::section(std::uint32_t tag)
{
    std::uint32_t seen = tag;
    bytes(&seen, sizeof(seen));
    if (loading() && ok() && seen != tag) {
        fail(detail::formatString(
            "checkpoint section mismatch at offset %zu: "
            "expected %08x, found %08x",
            cursor_ - sizeof(seen), tag, seen));
    }
}

void
StateSerializer::io(std::string &v)
{
    std::uint64_t n = v.size();
    io(n);
    if (loading()) {
        if (!ok() || cursor_ + n > buf_.size()) {
            fail("checkpoint truncated inside string");
            v.clear();
            return;
        }
        v.assign(reinterpret_cast<const char *>(buf_.data() + cursor_),
                 static_cast<std::size_t>(n));
        cursor_ += static_cast<std::size_t>(n);
    } else {
        for (char &c : v)
            bytes(&c, 1);
    }
}

void
StateSerializer::io(Rng &rng)
{
    std::array<std::uint64_t, 4> s = rng.rawState();
    for (std::uint64_t &w : s)
        io(w);
    if (loading())
        rng.setRawState(s);
}

void
StateSerializer::io(Flit &f)
{
    io(f.packet);
    io(f.src);
    io(f.dst);
    io(f.type);
    io(f.length);
    io(f.seq);
    io(f.createdAt);
    io(f.injectedAt);
    io(f.hops);
    io(f.misroutes);
    io(f.onEscape);
    io(f.escLevel);
    io(f.vc);
    io(f.tag);
    io(f.kind);
    io(f.faultFlags);
    io(f.e2eSeq);
    io(f.ackSeq);
    io(f.nackSeq);
    io(f.payload);
    io(f.checksum);
    for (std::int16_t &n : f.visited)
        io(n);
    io(f.visitedCount);
}

void
StateSerializer::io(PacketDescriptor &d)
{
    io(d.src);
    io(d.dst);
    io(d.length);
    io(d.createdAt);
    io(d.tag);
}

}  // namespace nord
