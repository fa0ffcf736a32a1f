/**
 * @file
 * Checkpoint container implementation.
 */

#include "ckpt/checkpoint.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/fnv.hh"
#include "common/log.hh"

#ifndef _WIN32
#include <fcntl.h>
#include <unistd.h>
#endif

namespace nord {

namespace {

void
setErr(std::string *err, std::string what)
{
    if (err)
        *err = std::move(what);
}

bool
writeAll(std::FILE *f, const void *p, std::size_t n)
{
    return n == 0 || std::fwrite(p, 1, n, f) == n;
}

bool
readAll(std::FILE *f, void *p, std::size_t n)
{
    return std::fread(p, 1, n, f) == n;
}

}  // namespace

bool
fsyncParentDir(const std::string &path, std::string *err)
{
#ifndef _WIN32
    const std::size_t slash = path.find_last_of('/');
    const std::string dir =
        slash == std::string::npos ? "." : path.substr(0, slash);
    const int fd = ::open(dir.empty() ? "/" : dir.c_str(),
                          O_RDONLY | O_DIRECTORY);
    if (fd < 0) {
        setErr(err, detail::formatString("cannot open directory %s: %s",
                                         dir.c_str(),
                                         std::strerror(errno)));
        return false;
    }
    const bool ok = fsync(fd) == 0;
    if (!ok)
        setErr(err, detail::formatString("fsync of directory %s failed: %s",
                                         dir.c_str(),
                                         std::strerror(errno)));
    if (::close(fd) != 0) {
        // The fsync result already told us whether the entry is durable.
    }
    return ok;
#else
    (void)path;
    (void)err;
    return true;
#endif
}

std::uint64_t
fnv1a(const std::vector<std::uint8_t> &bytes)
{
    return fnv1aFold(kFnvOffset, bytes.data(), bytes.size());
}

bool
atomicWriteFile(const std::string &path, std::string_view head,
                std::string_view body, std::string *err)
{
    const std::string tmp = path + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f) {
        setErr(err, detail::formatString("cannot open %s: %s", tmp.c_str(),
                                         std::strerror(errno)));
        return false;
    }
    bool ok = writeAll(f, head.data(), head.size()) &&
              writeAll(f, body.data(), body.size());
    ok = (std::fflush(f) == 0) && ok;
#ifndef _WIN32
    // Make the rename durable: the data must hit the disk before the new
    // name does, or a crash could leave a valid-looking empty file.
    ok = (fsync(fileno(f)) == 0) && ok;
#endif
    ok = (std::fclose(f) == 0) && ok;
    if (!ok) {
        setErr(err, detail::formatString("short write to %s", tmp.c_str()));
        if (std::remove(tmp.c_str()) != 0) {
            // Best effort: the stale .tmp is harmless, the next write
            // truncates it.
        }
        return false;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        setErr(err, detail::formatString("rename %s -> %s failed: %s",
                                         tmp.c_str(), path.c_str(),
                                         std::strerror(errno)));
        if (std::remove(tmp.c_str()) != 0) {
            // Best effort (see above).
        }
        return false;
    }
    return fsyncParentDir(path, err);
}

namespace {

/** Digest of the header fields the payload hash cannot protect. */
std::uint64_t
headerDigest(const CheckpointMeta &meta, std::uint64_t paySize,
             std::uint64_t payHash)
{
    std::uint64_t h = kFnvOffset;
    h = fnv1aFold(h, &meta.version, sizeof(meta.version));
    h = fnv1aFold(h, &meta.configFingerprint,
                  sizeof(meta.configFingerprint));
    h = fnv1aFold(h, &meta.cycle, sizeof(meta.cycle));
    h = fnv1aFold(h, meta.user.data(),
                  sizeof(std::uint64_t) * meta.user.size());
    h = fnv1aFold(h, &paySize, sizeof(paySize));
    h = fnv1aFold(h, &payHash, sizeof(payHash));
    return h;
}

}  // namespace

bool
writeCheckpointFile(const std::string &path, const CheckpointMeta &meta,
                    const std::vector<std::uint8_t> &payload,
                    std::string *err)
{
    const std::uint64_t paySize = payload.size();
    const std::uint64_t payHash = fnv1a(payload);
    const std::uint64_t metaHash = headerDigest(meta, paySize, payHash);
    char head[80];  // magic..metaHash: 4 + 4 + 8 + 8 + 32 + 3 * 8 bytes
    std::size_t headSize = 0;
    auto put = [&](const void *p, std::size_t n) {
        std::memcpy(head + headSize, p, n);
        headSize += n;
    };
    put(&kCheckpointMagic, sizeof(kCheckpointMagic));
    put(&meta.version, sizeof(meta.version));
    put(&meta.configFingerprint, sizeof(meta.configFingerprint));
    put(&meta.cycle, sizeof(meta.cycle));
    put(meta.user.data(), sizeof(std::uint64_t) * meta.user.size());
    put(&paySize, sizeof(paySize));
    put(&payHash, sizeof(payHash));
    put(&metaHash, sizeof(metaHash));
    return atomicWriteFile(
        path, {head, headSize},
        {reinterpret_cast<const char *>(payload.data()), payload.size()},
        err);
}

bool
readCheckpointFile(const std::string &path, CheckpointMeta *meta,
                   std::vector<std::uint8_t> *payload, std::string *err)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f) {
        setErr(err, detail::formatString("cannot open %s: %s", path.c_str(),
                                         std::strerror(errno)));
        return false;
    }
    std::uint32_t magic = 0;
    CheckpointMeta m;
    std::uint64_t paySize = 0;
    std::uint64_t payHash = 0;
    std::uint64_t metaHash = 0;
    bool ok = readAll(f, &magic, sizeof(magic)) &&
              readAll(f, &m.version, sizeof(m.version)) &&
              readAll(f, &m.configFingerprint,
                      sizeof(m.configFingerprint)) &&
              readAll(f, &m.cycle, sizeof(m.cycle)) &&
              readAll(f, m.user.data(),
                      sizeof(std::uint64_t) * m.user.size()) &&
              readAll(f, &paySize, sizeof(paySize)) &&
              readAll(f, &payHash, sizeof(payHash)) &&
              readAll(f, &metaHash, sizeof(metaHash));
    if (!ok) {
        std::fclose(f);
        setErr(err, detail::formatString("truncated checkpoint header in %s",
                                         path.c_str()));
        return false;
    }
    if (magic != kCheckpointMagic) {
        std::fclose(f);
        setErr(err, detail::formatString("%s is not a checkpoint "
                                         "(magic %08x)",
                                         path.c_str(), magic));
        return false;
    }
    if (m.version != kCheckpointVersion) {
        std::fclose(f);
        setErr(err, detail::formatString(
                        "checkpoint version mismatch in %s: file has v%u, "
                        "this build reads v%u",
                        path.c_str(), m.version, kCheckpointVersion));
        return false;
    }
    // Validate the header digest before paySize is trusted for the body
    // allocation: a flipped size bit must be caught here, not by an
    // attempted multi-exabyte vector.
    if (headerDigest(m, paySize, payHash) != metaHash) {
        std::fclose(f);
        setErr(err, detail::formatString("checkpoint header digest mismatch "
                                         "in %s (file corrupt)",
                                         path.c_str()));
        return false;
    }
    std::vector<std::uint8_t> body(static_cast<std::size_t>(paySize));
    if (!body.empty() && !readAll(f, body.data(), body.size())) {
        std::fclose(f);
        setErr(err, detail::formatString("truncated checkpoint payload in "
                                         "%s (expected %llu bytes)",
                                         path.c_str(),
                                         static_cast<unsigned long long>(
                                             paySize)));
        return false;
    }
    std::fclose(f);
    if (fnv1a(body) != payHash) {
        setErr(err, detail::formatString("checkpoint payload hash mismatch "
                                         "in %s (file corrupt)",
                                         path.c_str()));
        return false;
    }
    if (meta)
        *meta = m;
    if (payload)
        *payload = std::move(body);
    return true;
}

}  // namespace nord
