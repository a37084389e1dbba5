/**
 * @file
 * Field lists for statistics structs. A stats struct is declared from
 * one X-macro list with one entry per member, in wire order:
 *
 *     X(type, member, merge, group, key, description)
 *
 *  - type: the member's wire type (uint64_t, uint32_t, bool, double,
 *    std::string, a std::array/std::vector, or a nested struct);
 *  - merge: how fields::merge() folds a second run into the first —
 *    Sum, Max, Any (bool or), Keep (first run wins) or ByName (a
 *    vector of named structs, merged element-wise by their `name`);
 *  - group, key: where the stats registry shows it, below the
 *    struct's own group ("" group: the struct's group itself; "" key:
 *    not registered as a counter, e.g. a ratio re-derived by formula);
 *  - description: the registry's help text.
 *
 * FACSIM_STATS_FIELDS(Struct, LIST) expands the list into the members
 * and two visitors: fields() (member pointers, the ser::put/get codec
 * behind checkpoints and the request codec) and statFields() (member
 * pointer plus Meta: merging, registration, diffs in tests). Adding a
 * counter is one line in its list, plus a format-version bump when the
 * struct goes on the wire.
 */

#ifndef FACSIM_UTIL_FIELDS_HH
#define FACSIM_UTIL_FIELDS_HH

#include <algorithm>
#include <cstdint>
#include <type_traits>

#include "util/serialize.hh"

namespace facsim::fields
{

enum class Merge : uint8_t
{
    Sum,
    Max,
    Any,
    Keep,
    ByName,
};

/** One list entry, as statFields() hands it to a visitor. */
struct Meta
{
    const char *name;
    Merge merge;
    const char *group;
    const char *key;
    const char *desc;
};

template <class S>
concept StatListed =
    requires { S::statFields([](auto, const Meta &) {}); };

template <StatListed S>
void merge(S &into, const S &from);

/** Fold @p from into @p into by @p how (see Merge). */
template <class T>
void
mergeField(T &into, const T &from, Merge how)
{
    if constexpr (StatListed<T>) {
        merge(into, from);
    } else if constexpr (ser::IsArray<T>::value) {
        for (size_t i = 0; i < into.size(); ++i)
            mergeField(into[i], from[i], how);
    } else if constexpr (ser::IsVector<T>::value) {
        // ByName: the only vector rule.
        for (const auto &e : from) {
            auto it = std::find_if(into.begin(), into.end(),
                                   [&](const auto &x) {
                                       return x.name == e.name;
                                   });
            if (it == into.end())
                into.push_back(e);
            else
                merge(*it, e);
        }
    } else if constexpr (std::is_arithmetic_v<T>) {
        if (how == Merge::Sum)
            into += from;
        else if (how == Merge::Max)
            into = std::max(into, from);
        else if (how == Merge::Any)
            into = into || from;
    }
}

/** Fold every listed field of @p from into @p into. */
template <StatListed S>
void
merge(S &into, const S &from)
{
    S::statFields([&](auto m, const Meta &meta) {
        mergeField(into.*m, from.*m, meta.merge);
    });
}

} // namespace facsim::fields

#define FACSIM_STAT_MEMBER(type, name, merge, group, key, desc) type name{};
#define FACSIM_STAT_WIRE(type, name, merge, group, key, desc) v(&Self::name);
#define FACSIM_STAT_META(type, name, merge_, group, key, desc)              \
    v(&Self::name, ::facsim::fields::Meta{                                 \
                       #name, ::facsim::fields::Merge::merge_, group, key,  \
                       desc});

/** Members of @p Struct from @p LIST, plus fields() and statFields(). */
#define FACSIM_STATS_FIELDS(Struct, LIST)                                   \
    LIST(FACSIM_STAT_MEMBER)                                                \
    template <class V>                                                      \
    static void                                                             \
    fields(V &&v)                                                           \
    {                                                                       \
        using Self = Struct;                                                \
        LIST(FACSIM_STAT_WIRE)                                              \
    }                                                                       \
    template <class V>                                                      \
    static void                                                             \
    statFields(V &&v)                                                       \
    {                                                                       \
        using Self = Struct;                                                \
        LIST(FACSIM_STAT_META)                                              \
    }

#endif // FACSIM_UTIL_FIELDS_HH
