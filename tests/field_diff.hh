/**
 * @file
 * Test helper: compare two stats structs through their field lists
 * (util/fields.hh) and name every field that differs, so a test that
 * checks "same statistics" covers each counter the struct has — a new
 * counter is compared the moment it is listed.
 */

#ifndef FACSIM_TESTS_FIELD_DIFF_HH
#define FACSIM_TESTS_FIELD_DIFF_HH

#include <sstream>
#include <string>

#include "util/fields.hh"
#include "util/serialize.hh"

namespace facsim::test
{

template <class T>
void diffField(std::ostringstream &out, const std::string &name,
               const T &a, const T &b);

template <fields::StatListed S>
void
diffFields(std::ostringstream &out, const std::string &prefix, const S &a,
           const S &b)
{
    S::statFields([&](auto m, const fields::Meta &meta) {
        diffField(out, prefix + meta.name, a.*m, b.*m);
    });
}

template <class T>
void
diffField(std::ostringstream &out, const std::string &name, const T &a,
          const T &b)
{
    if constexpr (fields::StatListed<T>) {
        diffFields(out, name + ".", a, b);
    } else if constexpr (ser::IsVector<T>::value ||
                         ser::IsArray<T>::value) {
        if (a.size() != b.size()) {
            out << name << ".size: " << a.size() << " vs " << b.size()
                << "\n";
            return;
        }
        for (size_t i = 0; i < a.size(); ++i)
            diffField(out, name + "[" + std::to_string(i) + "]", a[i], b[i]);
    } else if constexpr (ser::FieldListed<T>) {
        ser::Writer wa, wb;
        ser::put(wa, a);
        ser::put(wb, b);
        if (wa.data() != wb.data())
            out << name << ": differs\n";
    } else if (!(a == b)) {
        out << name << ": " << a << " vs " << b << "\n";
    }
}

/**
 * One "field: a vs b" line for every listed field of @p a and @p b
 * that differs (nested structs and vectors by dotted path); empty when
 * the two are equal.
 */
template <fields::StatListed S>
std::string
fieldDiff(const S &a, const S &b)
{
    std::ostringstream out;
    diffFields(out, "", a, b);
    return out.str();
}

} // namespace facsim::test

#endif // FACSIM_TESTS_FIELD_DIFF_HH
