#include "asm/parser.hh"

#include <cctype>
#include <cstring>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <vector>

#include "asm/builder.hh"
#include "util/bits.hh"
#include "util/logging.hh"
#include "util/parse.hh"

namespace facsim
{

namespace
{

/** Parser state threaded through the line handlers. */
struct ParseState
{
    Program &prog;
    AsmBuilder as;
    int lineNo = 0;

    enum class Section { Text, Data, SData } section = Section::Text;

    // Code labels by name (forward references allowed).
    std::map<std::string, LabelId> labels;
    // Data symbols by name (forward references allowed too).
    std::map<std::string, SymId> symbols;
    std::set<std::string> definedSyms;

    // The data symbol currently accumulating bytes.
    std::optional<SymId> openSym;
    uint32_t nextAlign = 4;

    explicit ParseState(Program &p) : prog(p), as(p) {}

    [[noreturn]] void
    fail(const std::string &msg) const
    {
        fatal("asm parse error, line %d: %s", lineNo, msg.c_str());
    }

    LabelId
    label(const std::string &name)
    {
        auto it = labels.find(name);
        if (it != labels.end())
            return it->second;
        LabelId l = prog.newLabel();
        labels.emplace(name, l);
        return l;
    }
};

bool
isIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
        c == '.';
}

std::string
trim(const std::string &s)
{
    size_t b = s.find_first_not_of(" \t\r");
    if (b == std::string::npos)
        return "";
    size_t e = s.find_last_not_of(" \t\r");
    return s.substr(b, e - b + 1);
}

/** Split operand text at top-level commas (parentheses kept intact). */
std::vector<std::string>
splitOperands(const std::string &s)
{
    std::vector<std::string> out;
    int depth = 0;
    std::string cur;
    for (char c : s) {
        if (c == '(')
            ++depth;
        if (c == ')')
            --depth;
        if (c == ',' && depth == 0) {
            out.push_back(trim(cur));
            cur.clear();
        } else {
            cur += c;
        }
    }
    cur = trim(cur);
    if (!cur.empty())
        out.push_back(cur);
    return out;
}

/**
 * Strict decimal register number in [0, 32): digits only, whole token.
 * The digits-only pre-check also keeps tryU64's 0x-hex forms out —
 * "$0x10" and "$f1x" are malformed register tokens, not registers.
 */
std::optional<uint8_t>
parseRegNum(const std::string &n)
{
    if (n.empty() ||
        n.find_first_not_of("0123456789") != std::string::npos)
        return std::nullopt;
    uint64_t v;
    if (!parse::tryU64(n, &v) || v >= 32)
        return std::nullopt;
    return static_cast<uint8_t>(v);
}

/** Integer register by name ("$t0", "$3", "$sp"). */
std::optional<uint8_t>
parseIntReg(const std::string &t)
{
    if (t.size() < 2 || t[0] != '$')
        return std::nullopt;
    std::string n = t.substr(1);
    if (std::isdigit(static_cast<unsigned char>(n[0])))
        return parseRegNum(n);
    for (unsigned r = 0; r < 32; ++r) {
        if (n == regName(r))
            return static_cast<uint8_t>(r);
    }
    return std::nullopt;
}

/** FP register by name ("$f12"). */
std::optional<uint8_t>
parseFpReg(const std::string &t)
{
    if (t.size() < 3 || t[0] != '$' || t[1] != 'f')
        return std::nullopt;
    return parseRegNum(t.substr(2));
}

std::optional<int64_t>
parseInt(const std::string &t)
{
    if (t.empty())
        return std::nullopt;
    errno = 0;
    char *end = nullptr;
    long long v = std::strtoll(t.c_str(), &end, 0);
    if (errno != 0 || end != t.c_str() + t.size())
        return std::nullopt;
    return v;
}

uint8_t
needIntReg(ParseState &st, const std::string &t)
{
    auto r = parseIntReg(t);
    if (!r)
        st.fail("expected integer register, got '" + t + "'");
    return *r;
}

uint8_t
needFpReg(ParseState &st, const std::string &t)
{
    auto r = parseFpReg(t);
    if (!r)
        st.fail("expected FP register, got '" + t + "'");
    return *r;
}

int32_t
needInt(ParseState &st, const std::string &t, int64_t lo, int64_t hi)
{
    auto v = parseInt(t);
    if (!v || *v < lo || *v > hi)
        st.fail("expected integer in [" + std::to_string(lo) + ", " +
                std::to_string(hi) + "], got '" + t + "'");
    return static_cast<int32_t>(*v);
}

/** A parsed memory operand in one of the three addressing modes. */
struct MemOperand
{
    AMode amode = AMode::RegConst;
    uint8_t base = 0;
    uint8_t index = 0;     // RegReg
    int32_t imm = 0;       // RegConst offset or PostInc stride
    std::string gpSym;     // non-empty: gp-relative symbol reference
    int32_t gpAddend = 0;
};

/**
 * Parse "off(base)", "sym($gp)", "sym+4($gp)", "(base+index)" or
 * "(base)+stride".
 */
MemOperand
parseMemOperand(ParseState &st, const std::string &t)
{
    MemOperand m;
    size_t open = t.find('(');
    size_t close = t.find(')');
    if (open == std::string::npos || close == std::string::npos ||
        close < open)
        st.fail("malformed memory operand '" + t + "'");

    std::string before = trim(t.substr(0, open));
    std::string inside = trim(t.substr(open + 1, close - open - 1));
    std::string after = trim(t.substr(close + 1));

    if (!after.empty()) {
        // (base)+stride — post-increment/decrement ("(r)+4", "(r)+-4").
        if (!before.empty())
            st.fail("post-increment operand cannot have an offset");
        if (after[0] == '+')
            after = trim(after.substr(1));
        m.amode = AMode::PostInc;
        m.base = needIntReg(st, inside);
        m.imm = needInt(st, after, -32768, 32767);
        return m;
    }

    size_t plus = inside.find('+');
    if (plus != std::string::npos && inside[0] == '$') {
        // (base+index) — register+register.
        if (!before.empty())
            st.fail("register+register operand cannot have an offset");
        m.amode = AMode::RegReg;
        m.base = needIntReg(st, trim(inside.substr(0, plus)));
        m.index = needIntReg(st, trim(inside.substr(plus + 1)));
        return m;
    }

    // off(base) or sym(+addend)($gp).
    m.amode = AMode::RegConst;
    m.base = needIntReg(st, inside);
    if (before.empty()) {
        m.imm = 0;
        return m;
    }
    if (parseInt(before)) {
        m.imm = needInt(st, before, -32768, 32767);
        return m;
    }
    // Symbolic: name or name+addend; only meaningful off $gp.
    if (m.base != reg::gp)
        st.fail("symbolic offsets are only supported via ($gp)");
    size_t sp = before.find('+');
    if (sp == std::string::npos) {
        m.gpSym = before;
    } else {
        m.gpSym = trim(before.substr(0, sp));
        m.gpAddend = needInt(st, trim(before.substr(sp + 1)),
                             INT32_MIN, INT32_MAX);
    }
    return m;
}

SymId
needSym(ParseState &st, const std::string &name)
{
    auto it = st.symbols.find(name);
    if (it != st.symbols.end())
        return it->second;
    // Forward reference: allocate the symbol now; a later data label
    // must define it.
    SymId s = st.prog.addSym(DataSym{.name = name, .size = 0,
                                     .align = 4});
    st.symbols.emplace(name, s);
    return s;
}

/** Close the data symbol being accumulated, fixing its size. */
void
closeSym(ParseState &st)
{
    if (!st.openSym)
        return;
    DataSym &s = st.prog.syms()[*st.openSym];
    s.size = static_cast<uint32_t>(s.init.size());
    if (s.size == 0)
        s.size = 1;
    st.openSym.reset();
}

void
appendBytes(ParseState &st, const void *data, size_t n)
{
    if (!st.openSym)
        st.fail("data directive outside a labelled object");
    DataSym &s = st.prog.syms()[*st.openSym];
    const uint8_t *p = static_cast<const uint8_t *>(data);
    s.init.insert(s.init.end(), p, p + n);
}

void
handleDirective(ParseState &st, const std::string &dir,
                const std::vector<std::string> &ops)
{
    if (dir == ".text") {
        closeSym(st);
        st.section = ParseState::Section::Text;
        return;
    }
    if (dir == ".data" || dir == ".sdata") {
        closeSym(st);
        st.section = dir == ".data" ? ParseState::Section::Data
                                    : ParseState::Section::SData;
        return;
    }
    if (dir == ".align") {
        if (ops.size() != 1)
            st.fail(".align takes one operand");
        st.nextAlign = static_cast<uint32_t>(
            needInt(st, ops[0], 1, 4096));
        // The linker rounds addresses up with a power-of-two mask.
        if (!isPow2(st.nextAlign))
            st.fail(".align must be a power of two (got " + ops[0] + ")");
        return;
    }
    if (st.section == ParseState::Section::Text)
        st.fail("data directive '" + dir + "' in .text");

    if (dir == ".word") {
        for (const std::string &o : ops) {
            auto v = parseInt(o);
            if (!v)
                st.fail("bad .word value '" + o + "'");
            uint32_t w = static_cast<uint32_t>(*v);
            appendBytes(st, &w, 4);
        }
    } else if (dir == ".half") {
        for (const std::string &o : ops) {
            uint16_t h = static_cast<uint16_t>(
                needInt(st, o, -32768, 65535));
            appendBytes(st, &h, 2);
        }
    } else if (dir == ".byte") {
        for (const std::string &o : ops) {
            uint8_t b = static_cast<uint8_t>(needInt(st, o, -128, 255));
            appendBytes(st, &b, 1);
        }
    } else if (dir == ".double") {
        for (const std::string &o : ops) {
            char *end = nullptr;
            double d = std::strtod(o.c_str(), &end);
            if (end != o.c_str() + o.size())
                st.fail("bad .double value '" + o + "'");
            appendBytes(st, &d, 8);
        }
    } else if (dir == ".space") {
        if (ops.size() != 1)
            st.fail(".space takes one operand");
        int32_t n = needInt(st, ops[0], 0, 1 << 24);
        std::vector<uint8_t> zeros(static_cast<size_t>(n), 0);
        if (n)
            appendBytes(st, zeros.data(), zeros.size());
    } else {
        st.fail("unknown directive '" + dir + "'");
    }
}

/** Expand a pseudo-op (li, la, move, b); false if @p mn is none. */
bool
handlePseudo(ParseState &st, const std::string &mn,
             const std::vector<std::string> &ops)
{
    auto need = [&](size_t n) {
        if (ops.size() != n)
            st.fail(mn + " takes " + std::to_string(n) + " operand(s)");
    };
    if (mn == "li") {
        need(2);
        st.as.li(needIntReg(st, ops[0]),
                 needInt(st, ops[1], INT32_MIN, INT32_MAX));
    } else if (mn == "la") {
        need(2);
        st.as.la(needIntReg(st, ops[0]), needSym(st, ops[1]));
    } else if (mn == "move") {
        need(2);
        st.as.move(needIntReg(st, ops[0]), needIntReg(st, ops[1]));
    } else if (mn == "b") {
        need(1);
        uint32_t idx = st.prog.append(Inst{.op = Op::J});
        st.prog.addFixup({Fixup::Kind::Jump, idx, st.label(ops[0]), 0});
    } else {
        return false;
    }
    return true;
}

void
handleInstruction(ParseState &st, const std::string &mn,
                  std::vector<std::string> ops)
{
    static const std::map<std::string, Op> mnemonics = [] {
        std::map<std::string, Op> m;
        for (unsigned o = 0; o < static_cast<unsigned>(Op::NumOps); ++o)
            m.emplace(isa::info[o].mnemonic, static_cast<Op>(o));
        return m;
    }();
    auto it = mnemonics.find(mn);
    if (it == mnemonics.end()) {
        if (!handlePseudo(st, mn, ops))
            st.fail("unknown mnemonic '" + mn + "'");
        return;
    }

    const Op op = it->second;
    const isa::Shape shape = isa::of(op).shape;
    const isa::Operands want = isa::operandsOf(shape);
    // "jalr rs" links through $ra.
    if (op == Op::JALR && ops.size() == 1)
        ops.insert(ops.begin(), "$ra");
    if (ops.size() != want.n)
        st.fail(mn + " takes " + std::to_string(want.n) + " operand(s)");

    using O = isa::Operand;
    Inst in{.op = op};
    std::optional<Fixup> fixup;
    for (unsigned i = 0; i < want.n; ++i) {
        const std::string &t = ops[i];
        switch (want.at[i]) {
          case O::IntRd: in.rd = needIntReg(st, t); break;
          case O::IntRs: in.rs = needIntReg(st, t); break;
          case O::IntRt: in.rt = needIntReg(st, t); break;
          case O::FpRd: in.rd = needFpReg(st, t); break;
          case O::FpRs: in.rs = needFpReg(st, t); break;
          case O::FpRt: in.rt = needFpReg(st, t); break;
          case O::Imm: case O::Hex: {
            const isa::ImmRange r = isa::immRange(shape);
            in.imm = needInt(st, t, r.lo, r.hi);
            break;
          }
          case O::Branch:
            fixup = Fixup{Fixup::Kind::Branch, 0, st.label(t), 0};
            break;
          case O::Target:
            fixup = Fixup{Fixup::Kind::Jump, 0, st.label(t), 0};
            break;
          case O::Data:
            in.rt = isFpMem(op) ? needFpReg(st, t) : needIntReg(st, t);
            break;
          case O::Address: {
            const MemOperand m = parseMemOperand(st, t);
            if (!m.gpSym.empty()) {
                in.rs = reg::gp;
                fixup = Fixup{Fixup::Kind::GpRel, 0, needSym(st, m.gpSym),
                              m.gpAddend};
                break;
            }
            if (m.amode == AMode::PostInc && isa::of(op).pi < 0)
                st.fail("post-increment is not encodable for " + mn);
            in.amode = m.amode;
            in.rd = m.index;
            in.rs = m.base;
            in.imm = m.imm;
            break;
          }
        }
    }
    const uint32_t idx = st.prog.append(in);
    if (fixup) {
        fixup->instIndex = idx;
        st.prog.addFixup(*fixup);
    }
}

} // anonymous namespace

void
parseAsm(const std::string &source, Program &prog)
{
    FACSIM_ASSERT(prog.numInsts() == 0 && prog.syms().empty(),
                  "parseAsm needs an empty program");
    ParseState st(prog);

    std::istringstream in(source);
    std::string raw;
    while (std::getline(in, raw)) {
        ++st.lineNo;
        // Strip comments.
        std::string line = raw;
        size_t hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        size_t slashes = line.find("//");
        if (slashes != std::string::npos)
            line = line.substr(0, slashes);
        line = trim(line);
        if (line.empty())
            continue;

        // Leading label(s).
        while (true) {
            size_t i = 0;
            while (i < line.size() && isIdentChar(line[i]))
                ++i;
            if (i == 0 || i >= line.size() || line[i] != ':')
                break;
            std::string name = line.substr(0, i);
            line = trim(line.substr(i + 1));
            if (st.section == ParseState::Section::Text) {
                LabelId l = st.label(name);
                st.prog.bind(l);
            } else {
                closeSym(st);
                if (st.definedSyms.count(name))
                    st.fail("duplicate symbol '" + name + "'");
                SymId s;
                auto it = st.symbols.find(name);
                if (it != st.symbols.end()) {
                    s = it->second;  // was forward-referenced
                } else {
                    s = st.prog.addSym(DataSym{.name = name});
                    st.symbols.emplace(name, s);
                }
                DataSym &ds = st.prog.syms()[s];
                ds.align = st.nextAlign;
                ds.smallData =
                    st.section == ParseState::Section::SData;
                st.definedSyms.insert(name);
                st.openSym = s;
                st.nextAlign = 4;
            }
        }
        if (line.empty())
            continue;

        // Mnemonic/directive + operands.
        size_t sp = line.find_first_of(" \t");
        std::string head = sp == std::string::npos ? line
                                                   : line.substr(0, sp);
        std::string rest = sp == std::string::npos
            ? "" : trim(line.substr(sp + 1));
        std::vector<std::string> ops = splitOperands(rest);

        if (head[0] == '.') {
            handleDirective(st, head, ops);
        } else {
            if (st.section != ParseState::Section::Text)
                st.fail("instruction outside .text");
            handleInstruction(st, head, ops);
        }
    }
    closeSym(st);

    for (const auto &[name, sym] : st.symbols) {
        if (!st.definedSyms.count(name))
            fatal("asm parse error: symbol '%s' referenced but never "
                  "defined", name.c_str());
    }
}

} // namespace facsim
