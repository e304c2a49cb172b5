/**
 * @file
 * qec-rt-audit — static real-time contract auditor.
 *
 * Proves, over the compiled artifacts, that no QEC_REALTIME-
 * annotated hot-path root (src/qec/util/realtime.hpp) can reach a
 * forbidden operation — allocation, locking, clock reads, throws,
 * I/O, process exit, or nondeterminism — through any direct call
 * chain. The dynamic suites (counting allocator, TSan/UBSan) catch
 * a violation only when a test happens to execute the offending
 * path; this pass closes the rest of the call graph at build time.
 *
 * Pipeline:
 *  1. Parse compile_commands.json (CMAKE_EXPORT_COMPILE_COMMANDS)
 *     and keep every object whose source path matches a --filter.
 *  2. `objdump -t` each object for its symbol table (globals,
 *     locals, per-section function extents).
 *  3. `objdump -dr` each object; every relocation inside a
 *     function body becomes a call-graph edge. Section+offset
 *     relocations (static / cold-part functions) are resolved back
 *     to the containing symbol through the extents from step 2.
 *  4. Roots are the functions whose bodies relocate against
 *     qec_rt_root_anchor (the QEC_REALTIME marker).
 *  5. BFS from every root. Edges into denylisted symbols are
 *     violations (reported with the full chain); edges matching an
 *     allowlist pattern stop traversal and are recorded as
 *     exemptions; undefined symbols in the builtin safe list are
 *     leaves; other undefined symbols are "unknown externals"
 *     (policy set by --unknown).
 *
 * Honest-limitation notes (see docs/static_analysis.md): virtual
 * and function-pointer calls carry no relocation, so polymorphic
 * hot paths are closed by annotating every override (enforced
 * socially by review plus --baseline, which fails when the audited
 * root set differs from the committed list in either direction).
 * Address-taken functions do produce relocations and are traversed
 * conservatively as calls.
 */

#include <cxxabi.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace
{

// ---------------------------------------------------------------
// Policy tables
// ---------------------------------------------------------------

struct DenyRule
{
    const char *cls;  //!< Violation class (alloc, lock, clock, ...).
    const char *glob; //!< Glob over the mangled symbol name.
};

// The real-time denylist. Matched against the *target* symbol of
// every traversed edge, by mangled name.
const DenyRule kDenylist[] = {
    // -- alloc: any heap traffic outside the workspace discipline.
    {"alloc", "_Znwm*"},          // operator new
    {"alloc", "_Znam*"},          // operator new[]
    {"alloc", "_Znwj*"},
    {"alloc", "_Znaj*"},
    {"alloc", "_ZdlPv*"},         // operator delete
    {"alloc", "_ZdaPv*"},         // operator delete[]
    {"alloc", "malloc"},
    {"alloc", "calloc"},
    {"alloc", "realloc"},
    {"alloc", "reallocarray"},
    {"alloc", "free"},
    {"alloc", "cfree"},
    {"alloc", "posix_memalign"},
    {"alloc", "aligned_alloc"},
    {"alloc", "memalign"},
    {"alloc", "pvalloc"},
    {"alloc", "valloc"},
    {"alloc", "strdup"},
    {"alloc", "strndup"},
    {"alloc", "asprintf"},
    // -- lock: blocking synchronization and one-time-init guards.
    {"lock", "pthread_mutex_*"},
    {"lock", "pthread_rwlock_*"},
    {"lock", "pthread_cond_*"},
    {"lock", "pthread_spin_*"},
    {"lock", "pthread_barrier_*"},
    {"lock", "sem_wait"},
    {"lock", "sem_timedwait"},
    {"lock", "sem_trywait"},
    {"lock", "sem_post"},
    {"lock", "__cxa_guard_acquire"},
    {"lock", "__cxa_guard_release"},
    {"lock", "__cxa_guard_abort"},
    {"lock", "_ZSt9call_once*"},
    {"lock", "futex*"},
    // -- clock: wall/steady time reads and sleeps. Inject a
    //    qec::TimeSource instead; its virtual dispatch keeps the
    //    syscall off the static hot-path graph by construction.
    {"clock", "clock_gettime*"},
    {"clock", "clock_getres*"},
    {"clock", "gettimeofday"},
    {"clock", "time"},
    {"clock", "clock"},
    {"clock", "timespec_get"},
    {"clock", "_ZNSt6chrono3_V212steady_clock3nowEv"},
    {"clock", "_ZNSt6chrono3_V212system_clock3nowEv"},
    {"clock", "_ZNSt6chrono*3nowEv"},
    {"clock", "nanosleep"},
    {"clock", "clock_nanosleep"},
    {"clock", "usleep"},
    {"clock", "sleep"},
    {"clock", "_ZNSt11this_thread*sleep*"},
    {"clock", "_ZNSt11this_thread11__sleep_for*"},
    // -- throw: exception unwinding initiation (catching/cleanup
    //    landing pads are passive and stay off the denylist).
    {"throw", "__cxa_throw"},
    {"throw", "__cxa_allocate_exception"},
    {"throw", "__cxa_rethrow"},
    {"throw", "_ZSt*__throw_*"},
    {"throw", "_ZSt9terminatev"},
    {"throw", "_ZSt17rethrow_exception*"},
    // -- io: streams, stdio and raw fd traffic (the sanctioned
    //    noreturn panic funnel qec::qecPanic is allowlisted).
    {"io", "printf"},
    {"io", "fprintf"},
    {"io", "vfprintf"},
    {"io", "sprintf"},
    {"io", "snprintf"},
    {"io", "vsnprintf"},
    {"io", "puts"},
    {"io", "fputs"},
    {"io", "fputc"},
    {"io", "putchar"},
    {"io", "fwrite"},
    {"io", "fread"},
    {"io", "fflush"},
    {"io", "write"},
    {"io", "read"},
    {"io", "open"},
    {"io", "open64"},
    {"io", "close"},
    {"io", "fopen"},
    {"io", "fopen64"},
    {"io", "fclose"},
    {"io", "_ZSt4cout"},
    {"io", "_ZSt4cerr"},
    {"io", "_ZSt4clog"},
    {"io", "_ZSt4endl*"},
    {"io", "_ZNSo*"},  // std::basic_ostream<char> members
    {"io", "_ZNSi*"},  // std::basic_istream<char> members
    {"io", "_ZStlsISt11char_traits*"},
    {"io", "_ZStrsISt11char_traits*"},
    // -- rand: nondeterminism sources. Hot paths draw from the
    //    counter-based qec::Rng streams only.
    {"rand", "rand"},
    {"rand", "rand_r"},
    {"rand", "random"},
    {"rand", "random_r"},
    {"rand", "srand"},
    {"rand", "srandom"},
    {"rand", "drand48"},
    {"rand", "lrand48"},
    {"rand", "_ZNSt13random_device*"},
    {"rand", "getrandom"},
    {"rand", "getentropy"},
    // -- term: process exit. Invariant failures go through
    //    QEC_PANIC (abort is a permitted leaf); stray exit() on a
    //    hot path is a config-validation call that belongs at
    //    construction time.
    {"term", "exit"},
    {"term", "_exit"},
    {"term", "_Exit"},
    {"term", "quick_exit"},
    {"term", "abort_message"},
};

// Undefined symbols that are always acceptable leaves: memory/str
// intrinsics, math, unwinding bookkeeping, libgcc helpers.
const char *const kSafeExternals[] = {
    "memcpy", "memset", "memmove", "memcmp", "bcmp", "memchr",
    "strlen", "strcmp", "strncmp", "strchr", "strrchr",
    "abort", "__assert_fail", "__stack_chk_fail",
    "_Unwind_Resume", "__gxx_personality_v0",
    "__cxa_begin_catch", "__cxa_end_catch", "__cxa_pure_virtual",
    "__cxa_deleted_virtual", "__cxa_atexit", "atexit",
    "__dso_handle", "__errno_location", "sched_yield",
    "pthread_self",
    "sqrt", "sqrtf", "cbrt", "exp", "expf", "exp2", "exp2f",
    "log", "logf", "log2", "log2f", "log10", "log1p", "log1pf",
    "pow", "powf", "floor", "floorf", "ceil", "ceilf", "round",
    "roundf", "trunc", "truncf", "lround", "llround", "fmod",
    "fmodf", "fabs", "fabsf", "fmin", "fmax", "hypot", "atan2",
    "sin", "cos", "tan", "asin", "acos", "atan", "sinh", "cosh",
    "tanh", "erf", "erfc", "lgamma", "tgamma", "nextafter",
    "nextafterf",
    "__divti3", "__udivti3", "__modti3", "__umodti3", "__multi3",
    "__popcountdi2", "__clzdi2", "__ctzdi2",
};

// The QEC_REALTIME marker symbol (see src/qec/util/realtime.hpp).
const char kAnchor[] = "qec_rt_root_anchor";

// ---------------------------------------------------------------
// Small utilities
// ---------------------------------------------------------------

bool
globMatch(const char *pat, const char *str)
{
    // Iterative glob with '*' backtracking; '?' matches one char.
    const char *star = nullptr;
    const char *starStr = nullptr;
    while (*str) {
        if (*pat == *str || *pat == '?') {
            ++pat;
            ++str;
        } else if (*pat == '*') {
            star = pat++;
            starStr = str;
        } else if (star) {
            pat = star + 1;
            str = ++starStr;
        } else {
            return false;
        }
    }
    while (*pat == '*') {
        ++pat;
    }
    return *pat == '\0';
}

std::string
demangle(const std::string &name)
{
    int status = 0;
    char *out = abi::__cxa_demangle(name.c_str(), nullptr, nullptr,
                                    &status);
    if (status != 0 || out == nullptr) {
        std::free(out);
        return name;
    }
    std::string result(out);
    std::free(out);
    return result;
}

std::string
runCommand(const std::string &cmd, bool *ok)
{
    std::string out;
    FILE *pipe = popen(cmd.c_str(), "r");
    if (pipe == nullptr) {
        *ok = false;
        return out;
    }
    char buf[1 << 16];
    size_t n;
    while ((n = fread(buf, 1, sizeof(buf), pipe)) > 0) {
        out.append(buf, n);
    }
    *ok = pclose(pipe) == 0;
    return out;
}

std::string
shellQuote(const std::string &path)
{
    std::string quoted = "'";
    for (char c : path) {
        if (c == '\'') {
            quoted += "'\\''";
        } else {
            quoted += c;
        }
    }
    quoted += "'";
    return quoted;
}

// ---------------------------------------------------------------
// compile_commands.json → object file list
// ---------------------------------------------------------------

/** One compile entry: the fields rt-audit needs. */
struct CompileEntry
{
    std::string directory;
    std::string file;
    std::string object;
};

std::string
decodeJsonString(const std::string &text, size_t &pos)
{
    // pos points at the opening quote; returns the decoded string
    // and leaves pos after the closing quote.
    std::string out;
    ++pos;
    while (pos < text.size() && text[pos] != '"') {
        char c = text[pos];
        if (c == '\\' && pos + 1 < text.size()) {
            char esc = text[pos + 1];
            switch (esc) {
            case 'n': out += '\n'; break;
            case 't': out += '\t'; break;
            case 'r': out += '\r'; break;
            case 'b': out += '\b'; break;
            case 'f': out += '\f'; break;
            case 'u':
                // Paths never need non-ASCII here; keep the
                // escape verbatim rather than decoding UTF-16.
                out += "\\u";
                pos += 1;
                break;
            default: out += esc; break;
            }
            pos += 2;
        } else {
            out += c;
            ++pos;
        }
    }
    ++pos;
    return out;
}

std::vector<CompileEntry>
parseCompileCommands(const std::string &path, std::string *err)
{
    std::vector<CompileEntry> entries;
    std::ifstream in(path);
    if (!in) {
        *err = "cannot open " + path;
        return entries;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();

    size_t pos = 0;
    int depth = 0;
    CompileEntry current;
    std::string command;
    std::string arguments; // space-joined "arguments" array form
    bool inArguments = false;
    while (pos < text.size()) {
        char c = text[pos];
        if (c == '"') {
            std::string key = decodeJsonString(text, pos);
            if (depth == 1 && !inArguments) {
                // Expect  "key" : <value>
                size_t colon = text.find_first_not_of(" \t\n\r",
                                                      pos);
                if (colon == std::string::npos ||
                    text[colon] != ':') {
                    continue;
                }
                size_t valueStart = text.find_first_not_of(
                    " \t\n\r", colon + 1);
                if (valueStart == std::string::npos) {
                    continue;
                }
                if (text[valueStart] == '"') {
                    pos = valueStart;
                    std::string value = decodeJsonString(text, pos);
                    if (key == "directory") {
                        current.directory = value;
                    } else if (key == "file") {
                        current.file = value;
                    } else if (key == "output") {
                        current.object = value;
                    } else if (key == "command") {
                        command = value;
                    }
                } else if (text[valueStart] == '[' &&
                           key == "arguments") {
                    inArguments = true;
                    pos = valueStart + 1;
                }
            } else if (inArguments) {
                if (!arguments.empty()) {
                    arguments += ' ';
                }
                arguments += key;
            }
            continue;
        }
        if (c == '{') {
            ++depth;
            if (depth == 1) {
                current = CompileEntry();
                command.clear();
                arguments.clear();
            }
        } else if (c == '}') {
            if (depth == 1) {
                if (current.object.empty()) {
                    // Derive from the -o argument of the command.
                    const std::string &src =
                        command.empty() ? arguments : command;
                    size_t o = 0;
                    while ((o = src.find("-o", o)) !=
                           std::string::npos) {
                        if ((o == 0 || src[o - 1] == ' ') &&
                            o + 2 < src.size() &&
                            src[o + 2] == ' ') {
                            size_t start = src.find_first_not_of(
                                ' ', o + 2);
                            size_t end = src.find(' ', start);
                            current.object = src.substr(
                                start, end == std::string::npos
                                           ? std::string::npos
                                           : end - start);
                            break;
                        }
                        o += 2;
                    }
                }
                if (!current.object.empty()) {
                    if (current.object[0] != '/') {
                        current.object = current.directory + "/" +
                                         current.object;
                    }
                    entries.push_back(current);
                }
            }
            --depth;
        } else if (c == ']' && inArguments) {
            inArguments = false;
        }
        ++pos;
    }
    if (entries.empty()) {
        *err = "no compile entries found in " + path;
    }
    return entries;
}

// ---------------------------------------------------------------
// Object file parsing (objdump -t / objdump -dr)
// ---------------------------------------------------------------

/** A defined function symbol inside one object. */
struct FuncSym
{
    std::string name;
    std::string section;
    uint64_t value = 0;
    uint64_t size = 0;
    bool global = false;
};

struct ObjectInfo
{
    std::string path;
    std::vector<FuncSym> funcs;
    // section → indices into funcs, sorted by value (extent map
    // for resolving section+offset relocations).
    std::map<std::string, std::vector<size_t>> bySection;
    std::unordered_set<std::string> localNames;
};

bool
parseSymtab(ObjectInfo &obj, std::string *err)
{
    bool ok = false;
    const std::string out = runCommand(
        "objdump -t " + shellQuote(obj.path) + " 2>/dev/null", &ok);
    if (!ok) {
        *err = "objdump -t failed on " + obj.path;
        return false;
    }
    std::istringstream lines(out);
    std::string line;
    while (std::getline(lines, line)) {
        // Format: VALUE(16 hex) space FLAGS(7 chars) space SECTION
        //         space SIZE space NAME
        if (line.size() < 26 || !isxdigit(line[0])) {
            continue;
        }
        const uint64_t value =
            std::strtoull(line.substr(0, 16).c_str(), nullptr, 16);
        const std::string flags = line.substr(17, 7);
        const bool isFunc = flags.find('F') != std::string::npos;
        const bool global = flags[0] == 'g' || flags[0] == 'u' ||
                            flags[1] == 'w';
        std::istringstream rest(line.substr(25));
        std::string section, sizeHex, name;
        rest >> section >> sizeHex >> name;
        if (name.empty() || section == "*UND*" ||
            section == "*ABS*") {
            continue;
        }
        if (!isFunc) {
            // Track local data names too? Only function extents
            // matter for edge resolution; skip.
            continue;
        }
        FuncSym sym;
        sym.name = name;
        sym.section = section;
        sym.value = value;
        sym.size = std::strtoull(sizeHex.c_str(), nullptr, 16);
        sym.global = global;
        if (!global) {
            obj.localNames.insert(name);
        }
        obj.funcs.push_back(std::move(sym));
    }
    for (size_t i = 0; i < obj.funcs.size(); ++i) {
        obj.bySection[obj.funcs[i].section].push_back(i);
    }
    for (auto &entry : obj.bySection) {
        std::sort(entry.second.begin(), entry.second.end(),
                  [&](size_t a, size_t b) {
                      return obj.funcs[a].value <
                             obj.funcs[b].value;
                  });
    }
    return true;
}

// ---------------------------------------------------------------
// Call graph
// ---------------------------------------------------------------

struct Node
{
    std::string mangled;
    int object = -1;    //!< Defining object (-1: undefined/external).
    bool local = false; //!< Static / internal linkage.
    bool root = false;  //!< Carries the QEC_REALTIME marker.
    std::vector<int> edges;
};

class CallGraph
{
  public:
    int
    internNode(const std::string &name, int object, bool local)
    {
        const std::string key =
            local ? name + "@" + std::to_string(object) : name;
        auto it = index_.find(key);
        if (it != index_.end()) {
            return it->second;
        }
        const int id = static_cast<int>(nodes_.size());
        index_.emplace(key, id);
        Node node;
        node.mangled = name;
        node.object = object;
        node.local = local;
        nodes_.push_back(std::move(node));
        return id;
    }

    /** Global lookup without creating (external references). */
    int
    findGlobal(const std::string &name) const
    {
        auto it = index_.find(name);
        return it == index_.end() ? -1 : it->second;
    }

    void
    addEdge(int from, int to)
    {
        if (from < 0 || to < 0 || from == to) {
            return;
        }
        nodes_[from].edges.push_back(to);
    }

    void
    markDefined(int id, int object)
    {
        if (nodes_[id].object < 0) {
            nodes_[id].object = object;
        }
    }

    Node &node(int id) { return nodes_[id]; }
    const Node &node(int id) const { return nodes_[id]; }
    size_t size() const { return nodes_.size(); }

    void
    dedupEdges()
    {
        for (Node &n : nodes_) {
            std::sort(n.edges.begin(), n.edges.end());
            n.edges.erase(
                std::unique(n.edges.begin(), n.edges.end()),
                n.edges.end());
        }
    }

  private:
    std::vector<Node> nodes_;
    std::unordered_map<std::string, int> index_;
};

/** Resolve a section+offset reloc to the containing function. */
int
resolveSectionTarget(const ObjectInfo &obj, const CallGraph &graph,
                     CallGraph &mutableGraph,
                     const std::string &section, uint64_t offset,
                     int objIndex)
{
    (void)graph;
    auto it = obj.bySection.find(section);
    if (it == obj.bySection.end()) {
        return -1; // Data section or no function symbols: ignore.
    }
    // Last symbol with value <= offset whose extent covers it (zero
    // sized symbols cover until the next symbol).
    const std::vector<size_t> &syms = it->second;
    int best = -1;
    for (size_t idx : syms) {
        const FuncSym &sym = obj.funcs[idx];
        if (sym.value > offset) {
            break;
        }
        if (sym.size == 0 || offset < sym.value + sym.size) {
            best = static_cast<int>(idx);
        }
    }
    if (best < 0) {
        return -1;
    }
    const FuncSym &sym = obj.funcs[static_cast<size_t>(best)];
    return mutableGraph.internNode(sym.name, objIndex, !sym.global);
}

bool
parseDisassembly(ObjectInfo &obj, int objIndex, CallGraph &graph,
                 std::string *err)
{
    bool ok = false;
    const std::string out = runCommand(
        "objdump -dr " + shellQuote(obj.path) + " 2>/dev/null",
        &ok);
    if (!ok) {
        *err = "objdump -dr failed on " + obj.path;
        return false;
    }
    std::istringstream lines(out);
    std::string line;
    int current = -1;
    while (std::getline(lines, line)) {
        // Function label:  0000000000000000 <mangled>:
        if (!line.empty() && isxdigit(line[0])) {
            const size_t open = line.find('<');
            if (open != std::string::npos &&
                line.back() == ':') {
                const size_t close = line.rfind('>');
                if (close != std::string::npos && close > open) {
                    const std::string name = line.substr(
                        open + 1, close - open - 1);
                    const bool local = obj.localNames.count(name) >
                                       0;
                    current = graph.internNode(name, objIndex,
                                               local);
                    graph.markDefined(current, objIndex);
                    continue;
                }
            }
        }
        // Relocation line:  OFFSET: R_X86_64_TYPE\tTARGET[+-addend]
        const size_t rel = line.find("R_X86_64_");
        if (rel == std::string::npos || current < 0) {
            continue;
        }
        size_t tgt = line.find_first_of(" \t", rel);
        if (tgt == std::string::npos) {
            continue;
        }
        tgt = line.find_first_not_of(" \t", tgt);
        if (tgt == std::string::npos) {
            continue;
        }
        std::string target = line.substr(tgt);
        while (!target.empty() &&
               (target.back() == '\r' || target.back() == ' ')) {
            target.pop_back();
        }
        // Strip the addend (+0x... / -0x...). Careful: symbol
        // names never contain '+'; '-' only appears in the addend
        // suffix form "-0x".
        size_t plus = target.rfind("+0x");
        size_t minus = target.rfind("-0x");
        uint64_t addend = 0;
        bool negAddend = false;
        size_t cut = std::string::npos;
        if (plus != std::string::npos &&
            (minus == std::string::npos || plus > minus)) {
            cut = plus;
            addend = std::strtoull(target.c_str() + plus + 1,
                                   nullptr, 16);
        } else if (minus != std::string::npos) {
            cut = minus;
            addend = std::strtoull(target.c_str() + minus + 1,
                                   nullptr, 16);
            negAddend = true;
        }
        if (cut != std::string::npos) {
            target = target.substr(0, cut);
        }
        if (target.empty()) {
            continue;
        }
        int to = -1;
        if (target[0] == '.') {
            // Section-relative: resolve through function extents.
            // PC-relative relocs (PC32/PLT32) store target - 4 as
            // the addend — the fixup is relative to the *next*
            // instruction — so the real branch target is addend + 4.
            // Without the bias, a jump to a cold clone's first byte
            // resolves one-past-the-end of the *previous* clone in
            // the section, fabricating cross-function edges (e.g.
            // workerLoop -> drain.cold). Absolute relocs (64/32S,
            // jump tables) carry the plain offset. A -0x4 addend is
            // a PC-relative branch to the section start: offset 0.
            const size_t typeEnd =
                line.find_first_of(" \t", rel);
            const std::string relType = line.substr(
                rel, typeEnd == std::string::npos
                         ? std::string::npos
                         : typeEnd - rel);
            const bool pcRel = relType == "R_X86_64_PC32" ||
                               relType == "R_X86_64_PLT32";
            const uint64_t bias = pcRel ? 4 : 0;
            const uint64_t offset =
                negAddend ? (addend <= bias ? bias - addend : 0)
                          : addend + bias;
            to = resolveSectionTarget(obj, graph, graph,
                                      target, offset, objIndex);
            if (to < 0) {
                continue; // Data reference: not a call edge.
            }
        } else {
            const bool local = obj.localNames.count(target) > 0;
            to = graph.internNode(target, local ? objIndex : -1,
                                  local);
        }
        graph.addEdge(current, to);
    }
    return true;
}

// ---------------------------------------------------------------
// Allowlist
// ---------------------------------------------------------------

struct AllowEntry
{
    std::string glob;
    std::string reason;
    int hits = 0;
};

bool
loadAllowlist(const std::string &path,
              std::vector<AllowEntry> &allow, std::string *err)
{
    std::ifstream in(path);
    if (!in) {
        *err = "cannot open allowlist " + path;
        return false;
    }
    std::string line;
    while (std::getline(in, line)) {
        const size_t start = line.find_first_not_of(" \t");
        if (start == std::string::npos || line[start] == '#') {
            continue;
        }
        const size_t end = line.find_first_of(" \t", start);
        AllowEntry entry;
        entry.glob = line.substr(start, end - start);
        if (end != std::string::npos) {
            const size_t reason = line.find_first_not_of(" \t",
                                                         end);
            if (reason != std::string::npos) {
                entry.reason = line.substr(reason);
            }
        }
        allow.push_back(std::move(entry));
    }
    return true;
}

// ---------------------------------------------------------------
// Audit
// ---------------------------------------------------------------

struct Violation
{
    std::string cls;
    int root;
    int denied;
    std::vector<int> chain; // root .. caller, then denied target.
};

struct Options
{
    std::string compileCommands;
    std::vector<std::string> filters;
    std::string allowPath;
    std::string baselinePath;
    std::string writeBaselinePath;
    std::string reportPath;
    enum { kIgnore, kWarn, kError } unknownPolicy = kWarn;
    bool verbose = false;
};

const char *
denyClass(const std::string &name)
{
    for (const DenyRule &rule : kDenylist) {
        if (globMatch(rule.glob, name.c_str())) {
            return rule.cls;
        }
    }
    return nullptr;
}

bool
isSafeExternal(const std::string &name)
{
    for (const char *safe : kSafeExternals) {
        if (name == safe) {
            return true;
        }
    }
    // RTTI / vtable data referenced from landing pads and
    // constructors: address-only, never a call.
    return name.rfind("_ZTI", 0) == 0 ||
           name.rfind("_ZTV", 0) == 0 ||
           name.rfind("_ZTS", 0) == 0 ||
           name.rfind("_ZTT", 0) == 0;
}

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s --compile-commands <json> [options]\n"
        "  --filter <substr>       audit objects whose source path"
        " contains <substr>\n"
        "                          (repeatable; default src/qec/)\n"
        "  --allow <file>          allowlist of exempted edge"
        " targets (glob + reason)\n"
        "  --baseline <file>       fail unless the audited root"
        " symbols are exactly the listed ones\n"
        "  --write-baseline <file> write the current root symbol"
        " list and exit\n"
        "  --report <file>         write the full call-graph"
        " report\n"
        "  --unknown <policy>      ignore|warn|error for"
        " unclassified externals\n"
        "  --verbose               log per-object progress\n",
        argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&](const char *what) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "rt-audit: %s needs a value\n",
                             what);
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--compile-commands") {
            opt.compileCommands = next("--compile-commands");
        } else if (arg == "--filter") {
            opt.filters.push_back(next("--filter"));
        } else if (arg == "--allow") {
            opt.allowPath = next("--allow");
        } else if (arg == "--baseline") {
            opt.baselinePath = next("--baseline");
        } else if (arg == "--write-baseline") {
            opt.writeBaselinePath = next("--write-baseline");
        } else if (arg == "--report") {
            opt.reportPath = next("--report");
        } else if (arg == "--unknown") {
            const std::string policy = next("--unknown");
            if (policy == "ignore") {
                opt.unknownPolicy = Options::kIgnore;
            } else if (policy == "warn") {
                opt.unknownPolicy = Options::kWarn;
            } else if (policy == "error") {
                opt.unknownPolicy = Options::kError;
            } else {
                return usage(argv[0]);
            }
        } else if (arg == "--verbose") {
            opt.verbose = true;
        } else {
            return usage(argv[0]);
        }
    }
    if (opt.compileCommands.empty()) {
        return usage(argv[0]);
    }
    if (opt.filters.empty()) {
        opt.filters.push_back("src/qec/");
    }

    std::string err;
    std::vector<CompileEntry> entries =
        parseCompileCommands(opt.compileCommands, &err);
    if (entries.empty()) {
        std::fprintf(stderr, "rt-audit: %s\n", err.c_str());
        return 2;
    }

    std::vector<ObjectInfo> objects;
    for (const CompileEntry &entry : entries) {
        bool wanted = false;
        for (const std::string &f : opt.filters) {
            if (entry.file.find(f) != std::string::npos) {
                wanted = true;
                break;
            }
        }
        if (!wanted) {
            continue;
        }
        ObjectInfo obj;
        obj.path = entry.object;
        objects.push_back(std::move(obj));
    }
    if (objects.empty()) {
        std::fprintf(stderr,
                     "rt-audit: no objects matched the filters\n");
        return 2;
    }

    CallGraph graph;
    for (size_t i = 0; i < objects.size(); ++i) {
        if (opt.verbose) {
            std::fprintf(stderr, "rt-audit: parsing %s\n",
                         objects[i].path.c_str());
        }
        if (!parseSymtab(objects[i], &err) ||
            !parseDisassembly(objects[i], static_cast<int>(i),
                              graph, &err)) {
            std::fprintf(stderr, "rt-audit: %s\n", err.c_str());
            return 2;
        }
    }
    graph.dedupEdges();

    // Roots: functions with an edge to the anchor.
    const int anchorId = graph.findGlobal(kAnchor);
    std::vector<int> roots;
    if (anchorId >= 0) {
        for (size_t id = 0; id < graph.size(); ++id) {
            Node &n = graph.node(static_cast<int>(id));
            if (std::find(n.edges.begin(), n.edges.end(),
                          anchorId) != n.edges.end()) {
                n.root = true;
                roots.push_back(static_cast<int>(id));
            }
        }
    }
    std::sort(roots.begin(), roots.end(), [&](int a, int b) {
        return graph.node(a).mangled < graph.node(b).mangled;
    });

    if (!opt.writeBaselinePath.empty()) {
        std::ofstream out(opt.writeBaselinePath);
        if (!out) {
            std::fprintf(stderr,
                         "rt-audit: cannot write baseline %s\n",
                         opt.writeBaselinePath.c_str());
            return 2;
        }
        out << "# qec-rt-audit root baseline — one mangled symbol"
               " per line.\n"
            << "# Regenerate with: qec-rt-audit ..."
               " --write-baseline <this file>\n"
            << "# The audit fails unless the annotated roots are"
               " exactly these:\n"
            << "# a dropped QEC_REALTIME and an unlisted new root"
               " both fail.\n";
        for (int root : roots) {
            out << graph.node(root).mangled << "\n";
        }
        std::printf("rt-audit: wrote %zu roots to %s\n",
                    roots.size(),
                    opt.writeBaselinePath.c_str());
        return 0;
    }

    std::vector<AllowEntry> allow;
    if (!opt.allowPath.empty() &&
        !loadAllowlist(opt.allowPath, allow, &err)) {
        std::fprintf(stderr, "rt-audit: %s\n", err.c_str());
        return 2;
    }

    // BFS from every root.
    std::vector<Violation> violations;
    std::vector<std::string> exemptLines;
    std::set<std::pair<int, int>> unknownEdges;
    std::unordered_set<std::string> reachable;
    auto allowMatch = [&](const std::string &name) -> AllowEntry * {
        for (AllowEntry &entry : allow) {
            if (globMatch(entry.glob.c_str(), name.c_str())) {
                return &entry;
            }
        }
        return nullptr;
    };

    for (int root : roots) {
        std::unordered_map<int, int> parent; // node → caller
        std::deque<int> queue;
        std::set<int> reported; // denied nodes already reported
        parent[root] = -1;
        queue.push_back(root);
        while (!queue.empty()) {
            const int id = queue.front();
            queue.pop_front();
            reachable.insert(graph.node(id).mangled);
            for (int to : graph.node(id).edges) {
                if (to == anchorId) {
                    continue;
                }
                const Node &target = graph.node(to);
                const char *cls = denyClass(target.mangled);
                if (cls != nullptr) {
                    AllowEntry *entry =
                        allowMatch(target.mangled);
                    if (entry != nullptr) {
                        ++entry->hits;
                        exemptLines.push_back(
                            "EXEMPT pattern=" + entry->glob +
                            " edge: " +
                            demangle(graph.node(id).mangled) +
                            " -> " + demangle(target.mangled));
                        continue;
                    }
                    if (reported.insert(to).second) {
                        Violation v;
                        v.cls = cls;
                        v.root = root;
                        v.denied = to;
                        for (int at = id; at != -1;
                             at = parent[at]) {
                            v.chain.push_back(at);
                        }
                        std::reverse(v.chain.begin(),
                                     v.chain.end());
                        v.chain.push_back(to);
                        violations.push_back(std::move(v));
                    }
                    continue;
                }
                AllowEntry *entry = allowMatch(target.mangled);
                if (entry != nullptr) {
                    ++entry->hits;
                    exemptLines.push_back(
                        "EXEMPT pattern=" + entry->glob +
                        " edge: " +
                        demangle(graph.node(id).mangled) +
                        " -> " + demangle(target.mangled));
                    continue;
                }
                if (target.object < 0) {
                    // Undefined external, not denied/allowed.
                    if (!isSafeExternal(target.mangled)) {
                        unknownEdges.emplace(id, to);
                    }
                    continue;
                }
                if (parent.emplace(to, id).second) {
                    queue.push_back(to);
                }
            }
        }
    }

    // ---- Output ------------------------------------------------
    std::ostringstream report;
    report << "qec-rt-audit report\n"
           << "===================\n"
           << "objects audited: " << objects.size() << "\n"
           << "graph nodes:     " << graph.size() << "\n"
           << "roots:           " << roots.size() << "\n"
           << "reachable fns:   " << reachable.size() << "\n\n"
           << "Roots (QEC_REALTIME):\n";
    for (int root : roots) {
        report << "  ROOT " << graph.node(root).mangled << "  # "
               << demangle(graph.node(root).mangled) << "\n";
    }
    report << "\n";

    for (const Violation &v : violations) {
        std::string line = "VIOLATION class=" + v.cls +
                           " root=\"" +
                           demangle(graph.node(v.root).mangled) +
                           "\" denied=\"" +
                           demangle(graph.node(v.denied).mangled) +
                           "\" chain: ";
        for (size_t i = 0; i < v.chain.size(); ++i) {
            if (i > 0) {
                line += " -> ";
            }
            line += demangle(graph.node(v.chain[i]).mangled);
        }
        std::printf("%s\n", line.c_str());
        report << line << "\n";
    }

    std::sort(exemptLines.begin(), exemptLines.end());
    exemptLines.erase(std::unique(exemptLines.begin(),
                                  exemptLines.end()),
                      exemptLines.end());
    report << "\nExemptions (" << exemptLines.size() << "):\n";
    for (const std::string &line : exemptLines) {
        report << "  " << line << "\n";
    }

    bool staleAllow = false;
    for (const AllowEntry &entry : allow) {
        if (entry.hits == 0) {
            staleAllow = true;
            std::printf("STALE allowlist pattern=%s (matched no"
                        " edge; remove or fix it)\n",
                        entry.glob.c_str());
            report << "STALE allowlist pattern=" << entry.glob
                   << "\n";
        }
    }

    report << "\nUnknown externals (" << unknownEdges.size()
           << "):\n";
    for (const auto &edge : unknownEdges) {
        const std::string line =
            "UNKNOWN " + demangle(graph.node(edge.first).mangled) +
            " -> " + demangle(graph.node(edge.second).mangled);
        if (opt.unknownPolicy != Options::kIgnore) {
            std::printf("%s\n", line.c_str());
        }
        report << "  " << line << "\n";
    }

    bool baselineMismatch = false;
    if (!opt.baselinePath.empty()) {
        std::ifstream in(opt.baselinePath);
        if (!in) {
            std::fprintf(stderr,
                         "rt-audit: cannot open baseline %s\n",
                         opt.baselinePath.c_str());
            return 2;
        }
        std::set<std::string> current;
        for (int root : roots) {
            current.insert(graph.node(root).mangled);
        }
        std::set<std::string> listed;
        std::string line;
        while (std::getline(in, line)) {
            const size_t start = line.find_first_not_of(" \t");
            if (start == std::string::npos || line[start] == '#') {
                continue;
            }
            size_t end = line.find_first_of(" \t\r", start);
            const std::string name = line.substr(
                start, end == std::string::npos
                           ? std::string::npos
                           : end - start);
            listed.insert(name);
            if (current.count(name) == 0) {
                baselineMismatch = true;
                std::printf("BASELINE-MISSING %s  # %s\n",
                            name.c_str(),
                            demangle(name).c_str());
                report << "BASELINE-MISSING " << name << "\n";
            }
        }
        // An annotated root the baseline does not list is as much
        // a mismatch as a listed one that lost its annotation: the
        // baseline is the one exact record of the audited set.
        for (const std::string &name : current) {
            if (listed.count(name) == 0) {
                baselineMismatch = true;
                std::printf("BASELINE-UNLISTED %s  # %s\n",
                            name.c_str(), demangle(name).c_str());
                report << "BASELINE-UNLISTED " << name << "\n";
            }
        }
    }

    const std::string summary =
        "rt-audit: " + std::to_string(roots.size()) + " roots, " +
        std::to_string(reachable.size()) +
        " reachable functions, " +
        std::to_string(violations.size()) + " violations, " +
        std::to_string(exemptLines.size()) + " exemptions, " +
        std::to_string(unknownEdges.size()) +
        " unknown externals";
    std::printf("%s\n", summary.c_str());
    report << "\n" << summary << "\n";

    if (!opt.reportPath.empty()) {
        std::ofstream out(opt.reportPath);
        if (!out) {
            std::fprintf(stderr,
                         "rt-audit: cannot write report %s\n",
                         opt.reportPath.c_str());
            return 2;
        }
        out << report.str();
    }

    bool failed = !violations.empty() || staleAllow ||
                  baselineMismatch;
    if (opt.unknownPolicy == Options::kError &&
        !unknownEdges.empty()) {
        failed = true;
    }
    return failed ? 1 : 0;
}
