/**
 * @file
 * Header-only binary serialization: the Writer and the two readers
 * behind checkpoints, live-point libraries, the request codec and the
 * result cache, plus put()/get() for structs and model components with
 * a field list. Kept in util/ and fully inline so that low-level
 * structures (Cache, Btb, Tlb, MshrFile, ...) can list their state
 * without linking against the sim layer.
 *
 * The encoding is fixed-width little-endian with no alignment; strings
 * and byte blocks are length-prefixed. Both readers are bounds-checked:
 * TryReader latches the first failure for untrusted input, Reader dies
 * through fatal() for the simulator's own files.
 */

#ifndef FACSIM_UTIL_SERIALIZE_HH
#define FACSIM_UTIL_SERIALIZE_HH

#include <array>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "util/logging.hh"

namespace facsim::ser
{

/** FNV-1a 64-bit hash — the checkpoint trailer checksum. */
inline uint64_t
fnv1a(const void *data, size_t len, uint64_t h = 0xcbf29ce484222325ull)
{
    const uint8_t *p = static_cast<const uint8_t *>(data);
    for (size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Accumulates an encoded byte stream. */
class Writer
{
  public:
    void
    u8(uint8_t v)
    {
        buf_.push_back(static_cast<char>(v));
    }

    void
    u32(uint32_t v)
    {
        raw(&v, 4);
    }

    void
    u64(uint64_t v)
    {
        raw(&v, 8);
    }

    void
    f64(double v)
    {
        raw(&v, 8);
    }

    void
    b(bool v)
    {
        u8(v ? 1 : 0);
    }

    /** Length-prefixed string. */
    void
    str(const std::string &s)
    {
        u64(s.size());
        buf_.append(s);
    }

    /** Raw bytes, no length prefix (caller encodes the length). */
    void
    bytes(const void *data, size_t len)
    {
        raw(data, len);
    }

    const std::string &data() const { return buf_; }
    size_t size() const { return buf_.size(); }

    /** Overwrite the u64 at @p offset (a placeholder written earlier). */
    void
    patchU64(size_t offset, uint64_t v)
    {
        FACSIM_ASSERT(offset + 8 <= buf_.size(),
                      "patch at %zu past the %zu-byte stream", offset,
                      buf_.size());
        std::memcpy(&buf_[offset], &v, 8);
    }

  private:
    void
    raw(const void *p, size_t n)
    {
        // Encode little-endian regardless of host order. All supported
        // hosts are little-endian; memcpy keeps this alignment-safe.
        buf_.append(static_cast<const char *>(p), n);
    }

    std::string buf_;
};

/**
 * Bounds-checked decoder over a byte buffer (not owned), for untrusted
 * input (the experiment service's wire frames and cache files): the
 * first out-of-bounds read or fail() latches a failure flag and an
 * error message, and every later read returns zero without touching
 * the buffer. Callers check ok() once after decoding a whole
 * structure; a daemon must reject a malformed frame with a protocol
 * error, never abort.
 */
class TryReader
{
  public:
    TryReader(const void *data, size_t len)
        : p_(static_cast<const uint8_t *>(data)), len_(len)
    {
    }

    uint8_t u8() { return scalar<uint8_t>(); }
    uint32_t u32() { return scalar<uint32_t>(); }
    uint64_t u64() { return scalar<uint64_t>(); }
    double f64() { return scalar<double>(); }
    bool b() { return u8() != 0; }

    std::string
    str()
    {
        uint64_t n = u64();
        // Strings are identifiers; a huge length means a corrupt or
        // hostile stream, not that someone saved a 16 MB name.
        if (ok_ && n > (1u << 24)) {
            fail("unreasonable string length");
            return std::string();
        }
        if (!need(static_cast<size_t>(n)))
            return std::string();
        std::string s(reinterpret_cast<const char *>(p_ + off_),
                      static_cast<size_t>(n));
        off_ += static_cast<size_t>(n);
        return s;
    }

    bool
    bytes(void *out, size_t n)
    {
        if (!need(n))
            return false;
        std::memcpy(out, p_ + off_, n);
        off_ += n;
        return true;
    }

    /** Record a semantic (not framing) failure; reads stop succeeding. */
    void
    fail(const std::string &why)
    {
        if (fatalWhat_)
            fatal("%s corrupt: %s", fatalWhat_, why.c_str());
        if (ok_) {
            ok_ = false;
            error_ = why;
        }
    }

    bool ok() const { return ok_; }
    const std::string &error() const { return error_; }
    size_t offset() const { return off_; }
    size_t remaining() const { return len_ - off_; }
    bool atEnd() const { return off_ == len_; }

  protected:
    /** Set by Reader: failures die through fatal() naming the stream. */
    const char *fatalWhat_ = nullptr;

  private:
    template <class T>
    T
    scalar()
    {
        T v{};
        if (need(sizeof(T))) {
            std::memcpy(&v, p_ + off_, sizeof(T));
            off_ += sizeof(T);
        }
        return v;
    }

    bool
    need(size_t n)
    {
        if (ok_ && n <= len_ - off_) [[likely]]
            return true;
        return overrun(n);
    }

    /** need()'s failure path, kept out of line so reads stay small. */
    [[gnu::noinline, gnu::cold]] bool
    overrun(size_t n)
    {
        if (!ok_)
            return false;
        if (fatalWhat_) {
            fatal("%s truncated: needed %zu byte(s) at offset %zu but "
                  "only %zu remain", fatalWhat_, n, off_, len_ - off_);
        }
        fail("truncated stream");
        return false;
    }

    const uint8_t *p_;
    size_t len_;
    size_t off_ = 0;
    bool ok_ = true;
    std::string error_;
};

/**
 * The fatal variant, for files the simulator wrote itself (checkpoints,
 * live-point libraries): any read past the end, or any fail(), dies
 * through fatal() with a message naming the stream, which is how
 * corrupt files are rejected (see tests/test_checkpoint.cc).
 */
class Reader : public TryReader
{
  public:
    /**
     * @param data encoded stream (must outlive the Reader).
     * @param len stream length in bytes.
     * @param what label for error messages ("checkpoint", ...).
     */
    Reader(const void *data, size_t len, const char *what = "checkpoint")
        : TryReader(data, len)
    {
        fatalWhat_ = what;
    }

    /** Die unless the whole stream was consumed (trailing-junk check). */
    void
    expectEnd() const
    {
        if (!atEnd()) {
            fatal("%s corrupt: %zu trailing byte(s) after the last "
                  "section", fatalWhat_, remaining());
        }
    }
};

// ---------------------------------------------------------------------
// Field lists
//
// A struct that names its members in wire order,
//
//     template <class V>
//     static void fields(V &&v) { v(&S::a, &S::b, ...); }
//
// is encoded by put() and decoded by get() with no per-field code. A
// member may be a scalar (bool, uint8_t, uint32_t, int32_t, uint64_t,
// double), a std::string, a one-byte enum (range-checked on decode
// against enumLast(), found next to the enum), a std::array, a
// std::vector (u64 length prefix), a std::unique_ptr (its pointee when
// there is one, nothing otherwise) or another field-listed struct.
//
// Model components (Cache, Btb, Pipeline, ...) list the state a
// checkpoint saves the same way. Restore works in place on an object
// its constructor already shaped from the run's configuration, so a
// component's list may also hold these entries:
//
//  - Table{name, &C::v}: a vector, or an array of vectors, whose
//    length the constructor fixed. A stored length that differs is an
//    error naming the table; the wire rule below never resizes it.
//  - Queue{name, &C::q, cap}: a container filled at run time (size(),
//    operator[] and resize()), stored oldest first. More than cap(c)
//    elements is an error naming the queue.
//  - First{&C::a, n}: only the first n elements of a std::array.
//  - OnRestore{&C::f}: after the entries before it are restored,
//    c.f(reader) re-derives or checks what the stream does not say;
//    it is skipped once the reader has failed.

template <class T>
concept FieldListed = requires { T::fields([](auto...) {}); };

template <class T>
struct IsVector : std::false_type
{
};
template <class E, class A>
struct IsVector<std::vector<E, A>> : std::true_type
{
};

template <class T>
struct IsArray : std::false_type
{
};
template <class E, size_t N>
struct IsArray<std::array<E, N>> : std::true_type
{
};

template <class T>
struct IsUniquePtr : std::false_type
{
};
template <class E>
struct IsUniquePtr<std::unique_ptr<E>> : std::true_type
{
};

/** Cap on a decoded vector: more elements means a corrupt stream. */
constexpr uint64_t maxVectorLen = 4096;

template <class T>
void put(Writer &w, const T &v);
template <class T>
void get(TryReader &r, T &v);

/** A fixed-length table (see Table above). */
template <class P>
struct Table
{
    const char *name;
    P member;

    template <class C>
    void
    put(Writer &w, const C &c) const
    {
        ser::put(w, c.*member);
    }

    template <class C>
    void
    get(TryReader &r, C &c) const
    {
        restore(r, c.*member);
    }

    template <class T>
    void
    restore(TryReader &r, T &t) const
    {
        if constexpr (IsArray<T>::value) {
            for (auto &e : t)
                restore(r, e);
        } else {
            uint64_t n = r.u64();
            if (n != t.size()) {
                r.fail(strprintf("%s: %llu entries stored, %zu in this "
                                 "machine", name,
                                 static_cast<unsigned long long>(n),
                                 t.size()));
                return;
            }
            for (auto &e : t)
                ser::get(r, e);
        }
    }
};

/** A run-time queue bounded by a capacity (see Queue above). */
template <class P, class Cap>
struct Queue
{
    const char *name;
    P member;
    Cap cap;

    template <class C>
    void
    put(Writer &w, const C &c) const
    {
        const auto &q = c.*member;
        w.u64(q.size());
        for (size_t i = 0; i < q.size(); ++i)
            ser::put(w, q[i]);
    }

    template <class C>
    void
    get(TryReader &r, C &c) const
    {
        auto &q = c.*member;
        uint64_t n = r.u64();
        uint64_t most = std::invoke(cap, c);
        if (n > most) {
            r.fail(strprintf("%s: %llu entries stored, at most %llu fit "
                             "this machine", name,
                             static_cast<unsigned long long>(n),
                             static_cast<unsigned long long>(most)));
            return;
        }
        q.resize(static_cast<size_t>(n));
        for (size_t i = 0; i < q.size(); ++i)
            ser::get(r, q[i]);
    }
};

/** The first n elements of an array (see First above). */
template <class P>
struct First
{
    P member;
    size_t n;

    template <class C>
    void
    put(Writer &w, const C &c) const
    {
        for (size_t i = 0; i < n; ++i)
            ser::put(w, (c.*member)[i]);
    }

    template <class C>
    void
    get(TryReader &r, C &c) const
    {
        for (size_t i = 0; i < n; ++i)
            ser::get(r, (c.*member)[i]);
    }
};

/** A post-restore step (see OnRestore above). */
template <class F>
struct OnRestore
{
    F fn;

    template <class C>
    void
    put(Writer &, const C &) const
    {
    }

    template <class C>
    void
    get(TryReader &r, C &c) const
    {
        if (r.ok())
            (c.*fn)(r);
    }
};

/** One field-list entry of @p v: a member pointer or an entry above. */
template <class T, class M>
void
putField(Writer &w, const T &v, const M &m)
{
    if constexpr (std::is_member_object_pointer_v<M>)
        put(w, v.*m);
    else
        m.put(w, v);
}

template <class T, class M>
void
getField(TryReader &r, T &v, const M &m)
{
    if constexpr (std::is_member_object_pointer_v<M>)
        get(r, v.*m);
    else
        m.get(r, v);
}

template <class T>
void
put(Writer &w, const T &v)
{
    if constexpr (FieldListed<T>) {
        T::fields([&](const auto &...m) { (putField(w, v, m), ...); });
    } else if constexpr (std::is_enum_v<T>) {
        static_assert(sizeof(T) == 1, "wire enums are one byte");
        w.u8(static_cast<uint8_t>(v));
    } else if constexpr (std::is_same_v<T, bool>) {
        w.b(v);
    } else if constexpr (std::is_same_v<T, uint8_t>) {
        w.u8(v);
    } else if constexpr (std::is_same_v<T, uint32_t>) {
        w.u32(v);
    } else if constexpr (std::is_same_v<T, int32_t>) {
        w.u32(static_cast<uint32_t>(v));
    } else if constexpr (std::is_same_v<T, uint64_t>) {
        w.u64(v);
    } else if constexpr (std::is_same_v<T, double>) {
        w.f64(v);
    } else if constexpr (std::is_same_v<T, std::string>) {
        w.str(v);
    } else if constexpr (IsVector<T>::value) {
        w.u64(v.size());
        for (const auto &e : v)
            put(w, e);
    } else if constexpr (IsUniquePtr<T>::value) {
        if (v)
            put(w, *v);
    } else {
        static_assert(IsArray<T>::value, "no wire encoding for this type");
        for (const auto &e : v)
            put(w, e);
    }
}

/** Decode what put() wrote; failures latch in (or kill through) @p r. */
template <class T>
void
get(TryReader &r, T &v)
{
    if constexpr (FieldListed<T>) {
        T::fields([&](const auto &...m) { (getField(r, v, m), ...); });
    } else if constexpr (std::is_enum_v<T>) {
        uint8_t raw = r.u8();
        if (raw > static_cast<uint8_t>(enumLast(T{})))
            r.fail("enum value out of range");
        else
            v = static_cast<T>(raw);
    } else if constexpr (std::is_same_v<T, bool>) {
        v = r.b();
    } else if constexpr (std::is_same_v<T, uint8_t>) {
        v = r.u8();
    } else if constexpr (std::is_same_v<T, uint32_t>) {
        v = r.u32();
    } else if constexpr (std::is_same_v<T, int32_t>) {
        v = static_cast<int32_t>(r.u32());
    } else if constexpr (std::is_same_v<T, uint64_t>) {
        v = r.u64();
    } else if constexpr (std::is_same_v<T, double>) {
        v = r.f64();
    } else if constexpr (std::is_same_v<T, std::string>) {
        v = r.str();
    } else if constexpr (IsVector<T>::value) {
        uint64_t n = r.u64();
        if (n > maxVectorLen) {
            r.fail("unreasonable element count");
            return;
        }
        v.resize(n);
        for (auto &e : v)
            get(r, e);
    } else if constexpr (IsUniquePtr<T>::value) {
        if (v)
            get(r, *v);
    } else {
        static_assert(IsArray<T>::value, "no wire decoding for this type");
        for (auto &e : v)
            get(r, e);
    }
}

} // namespace facsim::ser

#endif // FACSIM_UTIL_SERIALIZE_HH
