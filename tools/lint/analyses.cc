#include "analyses.hh"

#include <algorithm>
#include <cctype>
#include <functional>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <unordered_set>

namespace diffy::lint
{

namespace
{

void
addFinding(std::vector<Finding> &out, const Suppressions &allow,
           const std::string &file, int line, const char *rule,
           std::string message)
{
    if (allow.covers(line, rule))
        return;
    out.push_back(Finding{file, line, rule, std::move(message)});
}

/* ------------------------------------------------------------------ */
/* R1: float/double accumulation in src/sim loop nests (depth >= 2)    */
/* ------------------------------------------------------------------ */

void
ruleR1(const FileModel &model, std::vector<Finding> &out)
{
    if (!startsWith(model.relPath, "src/sim/"))
        return;
    const std::vector<std::string> &lines = model.lines;

    // Single sequential pass: the set of identifiers currently known
    // to be float/double evolves as declarations go by, so an integer
    // re-declaration (`std::int64_t cycles` after a `double cycles`
    // struct member) takes over — within a function, declaration
    // precedes use, so "latest declaration wins" is the right
    // resolution for a file-scoped heuristic.
    static const std::regex decl(
        R"(\b(?:float|double)\s+([A-Za-z_]\w*))");
    static const std::regex vecDecl(
        R"(\bvector\s*<\s*(?:float|double)\s*>\s+([A-Za-z_]\w*))");
    static const std::regex intDecl(
        R"(\b(?:(?:std::)?u?int(?:8|16|32|64)_t|(?:std::)?size_t|(?:std::)?ptrdiff_t|int|long|short|unsigned)\s+([A-Za-z_]\w*))");
    static const std::regex intVecDecl(
        R"(\bvector\s*<\s*[^<>]*\bu?int[^<>]*>\s+([A-Za-z_]\w*))");
    static const std::regex accum(
        R"(([A-Za-z_]\w*)\s*(?:\[[^\]]*\])?\s*\+=)");
    std::unordered_set<std::string> floatIdents;
    LoopTracker tracker;
    for (std::size_t li = 0; li < lines.size(); ++li) {
        const std::string &line = lines[li];
        for (auto it = std::sregex_iterator(line.begin(), line.end(),
                                            decl);
             it != std::sregex_iterator(); ++it) {
            // Skip function declarations: `double foo(...)`.
            std::size_t after =
                static_cast<std::size_t>(it->position()) +
                it->str().size();
            while (after < line.size() &&
                   std::isspace(
                       static_cast<unsigned char>(line[after])))
                ++after;
            if (after < line.size() && line[after] == '(')
                continue;
            floatIdents.insert((*it)[1].str());
        }
        for (auto it = std::sregex_iterator(line.begin(), line.end(),
                                            vecDecl);
             it != std::sregex_iterator(); ++it)
            floatIdents.insert((*it)[1].str());
        for (auto it = std::sregex_iterator(line.begin(), line.end(),
                                            intDecl);
             it != std::sregex_iterator(); ++it)
            floatIdents.erase((*it)[1].str());
        for (auto it = std::sregex_iterator(line.begin(), line.end(),
                                            intVecDecl);
             it != std::sregex_iterator(); ++it)
            floatIdents.erase((*it)[1].str());

        std::vector<int> depth = tracker.depths(line);
        for (auto it = std::sregex_iterator(line.begin(), line.end(),
                                            accum);
             it != std::sregex_iterator(); ++it) {
            const std::string ident = (*it)[1].str();
            if (floatIdents.count(ident) == 0)
                continue;
            const auto col = static_cast<std::size_t>(it->position());
            if (depth[col] < 2)
                continue;
            addFinding(out, model.allow, model.relPath,
                       static_cast<int>(li) + 1, "R1",
                       "float/double tally '" + ident +
                           "' accumulated inside a sim loop nest; "
                           "tally in an integer and convert at stat "
                           "assembly (determinism contract)");
        }
    }
}

/* ------------------------------------------------------------------ */
/* R2: thread_local memo caches must register a clear hook             */
/* ------------------------------------------------------------------ */

void
ruleR2(const FileModel &model, std::vector<Finding> &out)
{
    if (model.relPath == "src/common/cache_registry.hh" ||
        model.relPath == "src/common/cache_registry.cc")
        return;
    static const std::regex tl(R"(\bthread_local\b)");
    static const std::regex reg(R"(\bDIFFY_REGISTER_THREAD_CACHE\s*\()");
    bool registers = false;
    for (const std::string &line : model.lines) {
        if (std::regex_search(line, reg)) {
            registers = true;
            break;
        }
    }
    if (registers)
        return;
    for (std::size_t li = 0; li < model.lines.size(); ++li) {
        if (std::regex_search(model.lines[li], tl)) {
            addFinding(out, model.allow, model.relPath,
                       static_cast<int>(li) + 1, "R2",
                       "thread_local cache without a registered clear "
                       "hook; add DIFFY_REGISTER_THREAD_CACHE in this "
                       "file (common/cache_registry.hh)");
        }
    }
}

/* ------------------------------------------------------------------ */
/* R3: RNG construction outside src/common/rng                         */
/* ------------------------------------------------------------------ */

void
ruleR3(const FileModel &model, std::vector<Finding> &out)
{
    if (startsWith(model.relPath, "src/common/rng."))
        return;
    static const std::regex rng(
        R"(\bmt19937(?:_64)?\b|\brandom_device\b|\bsrand\s*\(|\brand\s*\()");
    for (std::size_t li = 0; li < model.lines.size(); ++li) {
        auto begin = std::sregex_iterator(model.lines[li].begin(),
                                          model.lines[li].end(), rng);
        for (auto it = begin; it != std::sregex_iterator(); ++it) {
            addFinding(out, model.allow, model.relPath,
                       static_cast<int>(li) + 1, "R3",
                       "RNG construction '" + it->str() +
                           "' outside src/common/rng; use the seeded "
                           "Rng (splitmix64/xoshiro) streams");
        }
    }
}

/* ------------------------------------------------------------------ */
/* R4: raw BitReader::read* decode calls outside src/encode            */
/* ------------------------------------------------------------------ */

void
ruleR4(const FileModel &model, std::vector<Finding> &out)
{
    if (startsWith(model.relPath, "src/encode/"))
        return;
    const std::vector<std::string> &lines = model.lines;

    // Pass 1: variables declared (or bound) as BitReader.
    static const std::regex decl(
        R"(\bBitReader\s*&?\s+([A-Za-z_]\w*))");
    std::unordered_set<std::string> readers;
    for (const std::string &line : lines) {
        for (auto it = std::sregex_iterator(line.begin(), line.end(),
                                            decl);
             it != std::sregex_iterator(); ++it)
            readers.insert((*it)[1].str());
    }

    // Pass 2: raw read calls on those variables (or on a temporary).
    static const std::regex call(
        R"(\b([A-Za-z_]\w*)\s*\.\s*(read|readSigned)\s*\()");
    static const std::regex tempCall(
        R"(\bBitReader\s*\([^)]*\)\s*\.\s*(read|readSigned)\s*\()");
    for (std::size_t li = 0; li < lines.size(); ++li) {
        const std::string &line = lines[li];
        for (auto it = std::sregex_iterator(line.begin(), line.end(),
                                            call);
             it != std::sregex_iterator(); ++it) {
            if (readers.count((*it)[1].str()) == 0)
                continue;
            addFinding(out, model.allow, model.relPath,
                       static_cast<int>(li) + 1, "R4",
                       "raw BitReader::" + (*it)[2].str() +
                           "() outside codec internals; decode via "
                           "ActivationCodec::tryDecode/DecodeResult");
        }
        if (std::regex_search(line, tempCall)) {
            addFinding(out, model.allow, model.relPath,
                       static_cast<int>(li) + 1, "R4",
                       "raw BitReader read on a temporary outside "
                       "codec internals; decode via "
                       "ActivationCodec::tryDecode/DecodeResult");
        }
    }
}

/* ------------------------------------------------------------------ */
/* R5: header hygiene                                                  */
/* ------------------------------------------------------------------ */

/** Canonical include-guard macro for a header path. */
std::string
expectedGuard(const std::string &rel_path)
{
    std::string p = rel_path;
    if (startsWith(p, "src/"))
        p = p.substr(4);
    std::string guard = "DIFFY_";
    for (char c : p) {
        if (std::isalnum(static_cast<unsigned char>(c)))
            guard += static_cast<char>(
                std::toupper(static_cast<unsigned char>(c)));
        else
            guard += '_';
    }
    return guard; // e.g. common/rng.hh -> DIFFY_COMMON_RNG_HH
}

void
ruleR5(const FileModel &model, std::vector<Finding> &out)
{
    if (!endsWith(model.relPath, ".hh"))
        return;
    const std::vector<std::string> &lines = model.lines;

    static const std::regex usingNs(R"(\busing\s+namespace\b)");
    for (std::size_t li = 0; li < lines.size(); ++li) {
        if (std::regex_search(lines[li], usingNs)) {
            addFinding(out, model.allow, model.relPath,
                       static_cast<int>(li) + 1, "R5",
                       "using-directive in a header leaks into every "
                       "includer; qualify names instead");
        }
    }

    static const std::regex pragmaOnce(R"(^\s*#\s*pragma\s+once\b)");
    static const std::regex ifndef(R"(^\s*#\s*ifndef\s+(\w+))");
    static const std::regex define(R"(^\s*#\s*define\s+(\w+))");
    const std::string want = expectedGuard(model.relPath);

    for (std::size_t li = 0; li < lines.size(); ++li) {
        const std::string &line = lines[li];
        std::smatch m;
        if (std::regex_search(line, pragmaOnce)) {
            addFinding(out, model.allow, model.relPath,
                       static_cast<int>(li) + 1, "R5",
                       "#pragma once; the project convention is a "
                       "canonical " +
                           want + " include guard");
            return;
        }
        if (std::regex_search(line, m, ifndef)) {
            const std::string guard = m[1].str();
            bool defined = false;
            for (std::size_t dj = li + 1;
                 dj < lines.size() && dj <= li + 3; ++dj) {
                std::smatch dm;
                if (std::regex_search(lines[dj], dm, define) &&
                    dm[1].str() == guard) {
                    defined = true;
                    break;
                }
            }
            if (!defined) {
                addFinding(out, model.allow, model.relPath,
                           static_cast<int>(li) + 1, "R5",
                           "include guard #ifndef " + guard +
                               " is not followed by its #define");
            } else if (guard != want) {
                addFinding(out, model.allow, model.relPath,
                           static_cast<int>(li) + 1, "R5",
                           "include guard " + guard +
                               " does not match the canonical " + want);
            }
            return;
        }
        // Skip leading comments/blank lines; any other preprocessor
        // or code line before the guard means the guard is missing.
        std::string stripped = line;
        stripped.erase(std::remove_if(stripped.begin(), stripped.end(),
                                      [](unsigned char c) {
                                          return std::isspace(c) != 0;
                                      }),
                       stripped.end());
        if (!stripped.empty())
            break;
    }
    addFinding(out, model.allow, model.relPath, 1, "R5",
               "missing include guard; expected #ifndef " + want);
}

/* ------------------------------------------------------------------ */
/* R6: clock reads outside the observability/runtime timing layers     */
/* ------------------------------------------------------------------ */

void
ruleR6(const FileModel &model, std::vector<Finding> &out)
{
    if (startsWith(model.relPath, "src/obs/") ||
        startsWith(model.relPath, "src/runtime/"))
        return;
    static const std::regex clockNow(
        R"(\b(?:steady_clock|system_clock|high_resolution_clock)\s*::\s*now\s*\()");
    for (std::size_t li = 0; li < model.lines.size(); ++li) {
        auto begin = std::sregex_iterator(model.lines[li].begin(),
                                          model.lines[li].end(),
                                          clockNow);
        for (auto it = begin; it != std::sregex_iterator(); ++it) {
            addFinding(out, model.allow, model.relPath,
                       static_cast<int>(li) + 1, "R6",
                       "clock read '" + it->str() +
                           ")' outside src/obs + src/runtime; time via "
                           "obs::Span / obs::ScopedLatency so timing "
                           "stays centralized");
        }
    }
}

/* ------------------------------------------------------------------ */
/* R7: a bare catch (...) must rethrow or record the failure           */
/* ------------------------------------------------------------------ */

void
ruleR7(const FileModel &model, std::vector<Finding> &out)
{
    // No path scope: the rule applies tree-wide — every layer owns
    // its errors.
    const std::vector<std::string> &lines = model.lines;
    static const std::regex bareCatch(R"(\bcatch\s*\(\s*\.\.\.\s*\))");
    // Evidence the handler did something with the failure: rethrowing
    // (throw; / rethrow_exception), capturing it for later
    // (current_exception), classifying it into the taxonomy
    // (classifyException / SweepReport / a FailureKind result), or
    // recording to an obs counter (counter(...) / .add(...)).
    static const std::regex marker(
        R"(\bthrow\b|\bcurrent_exception\b|\brethrow_exception\b|\bclassifyException\b|\bSweepReport\b|\bFailureKind\b|\bcounter\s*\(|\.\s*add\s*\()");
    for (std::size_t li = 0; li < lines.size(); ++li) {
        std::smatch m;
        if (!std::regex_search(lines[li], m, bareCatch))
            continue;
        // Collect the brace-matched handler body that follows.
        std::string body;
        int depth = 0;
        bool opened = false;
        bool closed = false;
        std::size_t col = static_cast<std::size_t>(m.position()) +
                          m.str().size();
        for (std::size_t lj = li; lj < lines.size() && !closed;
             ++lj, col = 0) {
            const std::string &cur = lines[lj];
            for (; col < cur.size(); ++col) {
                const char c = cur[col];
                if (c == '{') {
                    ++depth;
                    opened = true;
                } else if (c == '}') {
                    --depth;
                    if (opened && depth == 0) {
                        closed = true;
                        break;
                    }
                }
                if (opened)
                    body += c;
            }
            body += '\n';
        }
        if (!opened || std::regex_search(body, marker))
            continue;
        addFinding(out, model.allow, model.relPath,
                   static_cast<int>(li) + 1, "R7",
                   "bare catch (...) swallows the failure; rethrow, "
                   "capture via current_exception, classify into the "
                   "failure taxonomy (classifyException/SweepReport), "
                   "or record it to an obs counter (DESIGN.md §12)");
    }
}

/* ------------------------------------------------------------------ */
/* R8: SIMD intrinsics live only in src/common/simd*                   */
/* ------------------------------------------------------------------ */

void
ruleR8(const FileModel &model, std::vector<Finding> &out)
{
    // The dispatch layer itself is the one sanctioned home for raw
    // intrinsics (simd.hh/cc, simd_x86.hh, simd_sse4/avx2.cc).
    if (startsWith(model.relPath, "src/common/simd"))
        return;
    // x86 `_mm*(...)` / `_mm256*(...)` and NEON q-register
    // `v*q_*(...)` calls; any real intrinsic use also needs the
    // vendor header, so the include pattern backstops spellings the
    // call patterns miss.
    static const std::regex intrinCall(
        R"(\b(_mm\w*|v[a-z][a-z0-9]*q_[a-z0-9_]+)\s*\()");
    static const std::regex intrinHeader(
        R"(^\s*#\s*include\s*<(?:[a-z0-9_]*intrin\.h|arm_neon\.h|arm_sve\.h)>)");
    for (std::size_t li = 0; li < model.lines.size(); ++li) {
        const std::string &line = model.lines[li];
        if (std::regex_search(line, intrinHeader)) {
            addFinding(out, model.allow, model.relPath,
                       static_cast<int>(li) + 1, "R8",
                       "vendor intrinsics header outside "
                       "src/common/simd*; add a kernel to the dispatch "
                       "table (common/simd.hh) instead");
            continue;
        }
        for (auto it = std::sregex_iterator(line.begin(), line.end(),
                                            intrinCall);
             it != std::sregex_iterator(); ++it) {
            addFinding(out, model.allow, model.relPath,
                       static_cast<int>(li) + 1, "R8",
                       "SIMD intrinsic '" + (*it)[1].str() +
                           "' outside src/common/simd*; add a kernel "
                           "to the dispatch table (common/simd.hh) "
                           "instead");
        }
    }
}

/* ------------------------------------------------------------------ */
/* R9: allocation discipline in hot-path loop bodies                   */
/* ------------------------------------------------------------------ */

bool
inR9Scope(const std::string &rel_path)
{
    return startsWith(rel_path, "src/sim/") ||
           startsWith(rel_path, "src/serve/") ||
           startsWith(rel_path, "src/encode/");
}

void
ruleR9(const FileModel &model, std::vector<Finding> &out)
{
    if (!inR9Scope(model.relPath))
        return;
    for (const GrowthSite &g : model.growth) {
        std::string message;
        if (g.kind == "new" || g.kind == "make_unique" ||
            g.kind == "make_shared") {
            message = "heap allocation (" +
                      (g.kind == "new" ? std::string("new")
                                       : "make_" + g.what) +
                      ") inside a hot-path loop body; allocate the "
                      "buffer once outside the loop and reuse it "
                      "(zero-allocation steady state, ROADMAP item 5)";
        } else if (g.kind == "push_back" || g.kind == "emplace_back") {
            // The pre-sized-append pattern is sanctioned: growth into
            // capacity reserved at loop depth 0 never reallocates.
            // Arena-backed containers (constructed with a
            // scratchAlloc() allocator) are sanctioned too: their
            // growth bumps the frame arena, which rewind() recycles.
            if (model.presized.count(g.what) > 0 ||
                model.arenaBacked.count(g.what) > 0)
                continue;
            message = "'" + g.what + "." + g.kind +
                      "' inside a loop without a loop-external "
                      "reserve()/resize() of '" + g.what +
                      "'; pre-size the container outside the loop so "
                      "iterations never reallocate";
        } else if (g.kind == "resize" || g.kind == "reserve") {
            if (model.arenaBacked.count(g.what) > 0)
                continue;
            message = "'" + g.what + "." + g.kind +
                      "' inside a loop body reallocates per "
                      "iteration; hoist the sizing out of the loop "
                      "and reuse the buffer";
        } else if (g.kind == "string") {
            message = "std::string '" + g.what +
                      "' built inside a loop body allocates per "
                      "iteration; hoist the buffer out of the loop "
                      "or assemble strings at stat/report level";
        } else if (g.kind == "to_string") {
            message = "std::to_string inside a loop body allocates "
                      "per iteration; format at stat/report assembly "
                      "instead";
        } else if (g.kind == "ostringstream") {
            message = "stringstream '" + g.what +
                      "' built inside a loop body allocates per "
                      "iteration; hoist it out of the loop and "
                      "str(\"\")-reset, or format at report level";
        } else {
            continue;
        }
        addFinding(out, model.allow, model.relPath, g.line, "R9",
                   std::move(message));
    }
}

/* ------------------------------------------------------------------ */
/* R10: lock discipline                                                */
/* ------------------------------------------------------------------ */

bool
inR10Scope(const std::string &rel_path)
{
    return startsWith(rel_path, "src/runtime/") ||
           startsWith(rel_path, "src/serve/") ||
           startsWith(rel_path, "src/core/trace_cache");
}

void
ruleR10Blocking(const FileModel &model, std::vector<Finding> &out)
{
    if (!inR10Scope(model.relPath))
        return;
    for (const BlockingSite &b : model.blocking) {
        addFinding(out, model.allow, model.relPath, b.line, "R10",
                   "blocking call '" + b.call +
                       "' while holding lock '" + b.heldMutex +
                       "'; drop the lock first (unlock(), or narrow "
                       "the guard scope) so waiters are never stalled "
                       "behind I/O or sleeps");
    }
}

/**
 * Merge every in-scope file's lock-order edges into one graph and
 * report each cycle (potential deadlock) once, at its
 * lexicographically first edge site.
 */
void
analyzeLockOrder(const std::vector<FileModel> &models,
                 std::vector<Finding> &out)
{
    struct Site
    {
        std::string file;
        int line = 0;
    };
    // Edge (held -> acquired) -> first site, deterministically: the
    // models arrive sorted by path and edges by line.
    std::map<std::pair<std::string, std::string>, Site> edges;
    std::map<std::string, const Suppressions *> allowByFile;
    for (const FileModel &m : models) {
        if (!inR10Scope(m.relPath))
            continue;
        allowByFile[m.relPath] = &m.allow;
        for (const LockOrderEdge &e : m.lockEdges) {
            auto key = std::make_pair(e.held, e.acquired);
            if (edges.find(key) == edges.end())
                edges[key] = Site{m.relPath, e.line};
        }
    }

    // Adjacency over normalized mutex names.
    std::map<std::string, std::vector<std::string>> graph;
    for (const auto &[key, site] : edges)
        graph[key.first].push_back(key.second);

    // DFS cycle extraction with a canonical form so each cycle is
    // reported exactly once regardless of entry point.
    std::set<std::string> reportedCycles;
    std::vector<std::string> stack;
    std::set<std::string> onStack;
    std::set<std::string> done;

    auto reportCycle = [&](const std::vector<std::string> &cycle) {
        // Canonicalize: rotate so the smallest mutex name leads.
        std::size_t lead = 0;
        for (std::size_t i = 1; i < cycle.size(); ++i)
            if (cycle[i] < cycle[lead])
                lead = i;
        std::vector<std::string> canon;
        for (std::size_t i = 0; i < cycle.size(); ++i)
            canon.push_back(cycle[(lead + i) % cycle.size()]);
        std::string key;
        for (const std::string &n : canon)
            key += n + ">";
        if (!reportedCycles.insert(key).second)
            return;

        std::string chain;
        std::vector<Site> sites;
        for (std::size_t i = 0; i < canon.size(); ++i) {
            const std::string &from = canon[i];
            const std::string &to = canon[(i + 1) % canon.size()];
            const Site &s = edges.at({from, to});
            sites.push_back(s);
            chain += from + " -> " + to + " (" + s.file + ":" +
                     std::to_string(s.line) + ")";
            if (i + 1 < canon.size())
                chain += ", ";
        }
        // Anchor at the lexicographically first participating site.
        const Site *anchor = &sites.front();
        for (const Site &s : sites)
            if (s.file < anchor->file ||
                (s.file == anchor->file && s.line < anchor->line))
                anchor = &s;
        const Suppressions *allow = allowByFile.count(anchor->file)
                                        ? allowByFile[anchor->file]
                                        : nullptr;
        if (allow != nullptr &&
            allow->covers(anchor->line, "R10"))
            return;
        out.push_back(Finding{
            anchor->file, anchor->line, "R10",
            "lock-order inversion (potential deadlock): " + chain +
                "; pick one global acquisition order and stick to "
                "it"});
    };

    std::function<void(const std::string &)> dfs =
        [&](const std::string &node) {
            stack.push_back(node);
            onStack.insert(node);
            auto it = graph.find(node);
            if (it != graph.end()) {
                for (const std::string &next : it->second) {
                    if (onStack.count(next)) {
                        // Extract the cycle node..next from the stack.
                        std::vector<std::string> cycle;
                        bool in = false;
                        for (const std::string &n : stack) {
                            if (n == next)
                                in = true;
                            if (in)
                                cycle.push_back(n);
                        }
                        reportCycle(cycle);
                    } else if (!done.count(next)) {
                        dfs(next);
                    }
                }
            }
            onStack.erase(node);
            stack.pop_back();
            done.insert(node);
        };
    for (const auto &[node, targets] : graph) {
        (void)targets;
        if (!done.count(node))
            dfs(node);
    }
}

/* ------------------------------------------------------------------ */
/* L1: include-graph layering                                          */
/* ------------------------------------------------------------------ */

/** Top-level src/ layer of a model, or "" when not under src/. */
std::string
layerOf(const std::string &rel_path)
{
    if (!startsWith(rel_path, "src/"))
        return "";
    const std::string rest = rel_path.substr(4);
    const std::string::size_type slash = rest.find('/');
    if (slash == std::string::npos)
        return "";
    return rest.substr(0, slash);
}

void
analyzeLayering(const std::vector<FileModel> &models,
                const LayerSpec &spec, bool full_src_scan,
                std::vector<Finding> &out)
{
    for (const auto &[line, message] : spec.errors)
        out.push_back(Finding{spec.relPath, line, "L1", message});

    std::set<std::string> declaredLayers;
    std::map<std::string, int> declLine;
    std::set<std::pair<std::string, std::string>> declaredEdges;
    for (const LayerSpec::Decl &d : spec.decls) {
        declaredLayers.insert(d.layer);
        declLine[d.layer] = d.line;
        for (const std::string &dep : d.deps)
            declaredEdges.insert({d.layer, dep});
    }
    for (const LayerSpec::Decl &d : spec.decls) {
        for (const std::string &dep : d.deps) {
            if (declaredLayers.count(dep) == 0)
                out.push_back(Finding{
                    spec.relPath, d.line, "L1",
                    "layer '" + d.layer + "' depends on '" + dep +
                        "', which is not itself declared as a "
                        "layer"});
        }
    }

    struct Site
    {
        std::string file;
        int line = 0;
    };
    std::set<std::string> seenLayers;
    std::map<std::string, Site> layerFirstFile;
    for (const FileModel &m : models) {
        const std::string layer = layerOf(m.relPath);
        if (layer.empty())
            continue;
        if (seenLayers.insert(layer).second)
            layerFirstFile[layer] = Site{m.relPath, 1};
    }

    // An include target is a layer edge when its first path component
    // names a known layer (declared or seen): `common/bitops.hh` from
    // src/sim is sim -> common; `lint.hh` (no slash) is same-dir.
    std::map<std::pair<std::string, std::string>, Site> actualEdges;
    std::map<std::string, const Suppressions *> allowByFile;
    for (const FileModel &m : models) {
        const std::string fromLayer = layerOf(m.relPath);
        if (fromLayer.empty())
            continue;
        allowByFile[m.relPath] = &m.allow;
        for (const IncludeSite &inc : m.includes) {
            const std::string::size_type slash = inc.target.find('/');
            if (slash == std::string::npos)
                continue;
            const std::string toLayer = inc.target.substr(0, slash);
            if (toLayer == fromLayer)
                continue;
            if (declaredLayers.count(toLayer) == 0 &&
                seenLayers.count(toLayer) == 0)
                continue;
            auto key = std::make_pair(fromLayer, toLayer);
            if (actualEdges.find(key) == actualEdges.end())
                actualEdges[key] = Site{m.relPath, inc.line};
        }
    }

    // Every layer present in the tree must be declared.
    for (const std::string &layer : seenLayers) {
        if (declaredLayers.count(layer) == 0) {
            const Site &s = layerFirstFile[layer];
            out.push_back(Finding{
                s.file, s.line, "L1",
                "src/" + layer + " is not declared in " +
                    spec.relPath +
                    "; add a 'layer: deps...' line placing it in "
                    "the DAG"});
        }
    }

    // Undeclared actual edges.
    for (const auto &[edge, site] : actualEdges) {
        if (declaredEdges.count(edge) > 0)
            continue;
        const Suppressions *allow = allowByFile.count(site.file)
                                        ? allowByFile[site.file]
                                        : nullptr;
        if (allow != nullptr && allow->covers(site.line, "L1"))
            continue;
        out.push_back(Finding{
            site.file, site.line, "L1",
            "include edge '" + edge.first + " -> " + edge.second +
                "' is not declared in " + spec.relPath +
                "; either this include breaks the layering or the "
                "DAG needs the new edge (declare it explicitly)"});
    }

    // Declared edges with no include behind them (full scans only: a
    // partial scan simply may not have read the including file).
    if (full_src_scan) {
        for (const auto &edge : declaredEdges) {
            if (actualEdges.count(edge) > 0)
                continue;
            out.push_back(Finding{
                spec.relPath, declLine[edge.first], "L1",
                "declared edge '" + edge.first + " -> " + edge.second +
                    "' has no #include behind it; remove it from the "
                    "DAG (declared edges are a contract, not a "
                    "wishlist)"});
        }
    }

    // Cycles in the ACTUAL graph (the declared DAG may also contain
    // cycles; those surface here too once the edges exist, and the
    // spec's own cycles are caught by the fixture tests).
    std::map<std::string, std::vector<std::string>> graph;
    for (const auto &[edge, site] : actualEdges) {
        (void)site;
        graph[edge.first].push_back(edge.second);
    }
    std::set<std::string> reported;
    std::vector<std::string> stack;
    std::set<std::string> onStack;
    std::set<std::string> done;
    std::function<void(const std::string &)> dfs =
        [&](const std::string &node) {
            stack.push_back(node);
            onStack.insert(node);
            auto it = graph.find(node);
            if (it != graph.end()) {
                for (const std::string &next : it->second) {
                    if (onStack.count(next)) {
                        std::vector<std::string> cycle;
                        bool in = false;
                        for (const std::string &n : stack) {
                            if (n == next)
                                in = true;
                            if (in)
                                cycle.push_back(n);
                        }
                        std::size_t lead = 0;
                        for (std::size_t i = 1; i < cycle.size(); ++i)
                            if (cycle[i] < cycle[lead])
                                lead = i;
                        std::rotate(cycle.begin(),
                                    cycle.begin() +
                                        static_cast<std::ptrdiff_t>(
                                            lead),
                                    cycle.end());
                        std::string key;
                        std::string chain;
                        for (const std::string &n : cycle) {
                            key += n + ">";
                            chain += n + " -> ";
                        }
                        chain += cycle.front();
                        if (reported.insert(key).second) {
                            const Site &s = actualEdges.at(
                                {cycle.front(),
                                 cycle[1 % cycle.size()]});
                            out.push_back(Finding{
                                s.file, s.line, "L1",
                                "include cycle between src/ layers: " +
                                    chain +
                                    "; break the cycle (extract the "
                                    "shared piece downward)"});
                        }
                    } else if (!done.count(next)) {
                        dfs(next);
                    }
                }
            }
            onStack.erase(node);
            stack.pop_back();
            done.insert(node);
        };
    for (const auto &[node, targets] : graph) {
        (void)targets;
        if (!done.count(node))
            dfs(node);
    }
}

} // namespace

/* ------------------------------------------------------------------ */
/* Public entry points                                                 */
/* ------------------------------------------------------------------ */

LayerSpec
parseLayerSpec(const std::string &rel_path,
               const std::string &contents)
{
    LayerSpec spec;
    spec.relPath = rel_path;
    const std::vector<std::string> lines = splitLines(contents);
    for (std::size_t li = 0; li < lines.size(); ++li) {
        std::string line = lines[li];
        const std::string::size_type hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        bool blank = true;
        for (char c : line)
            if (!std::isspace(static_cast<unsigned char>(c)))
                blank = false;
        if (blank)
            continue;
        const std::string::size_type colon = line.find(':');
        if (colon == std::string::npos) {
            spec.errors.push_back(
                {static_cast<int>(li) + 1,
                 "malformed layer line (expected 'layer: dep "
                 "dep ...'): " +
                     line});
            continue;
        }
        LayerSpec::Decl decl;
        decl.line = static_cast<int>(li) + 1;
        std::istringstream name(line.substr(0, colon));
        name >> decl.layer;
        std::string extra;
        if (decl.layer.empty() || (name >> extra)) {
            spec.errors.push_back(
                {static_cast<int>(li) + 1,
                 "malformed layer name before ':': " + line});
            continue;
        }
        std::istringstream deps(line.substr(colon + 1));
        std::string dep;
        while (deps >> dep)
            decl.deps.push_back(dep);
        spec.decls.push_back(std::move(decl));
    }
    return spec;
}

void
runFileAnalyses(const FileModel &model, std::vector<Finding> &out)
{
    ruleR1(model, out);
    ruleR2(model, out);
    ruleR3(model, out);
    ruleR4(model, out);
    ruleR5(model, out);
    ruleR6(model, out);
    ruleR7(model, out);
    ruleR8(model, out);
    ruleR9(model, out);
    ruleR10Blocking(model, out);
}

void
runTreeAnalyses(const std::vector<FileModel> &models,
                const LayerSpec *spec, bool full_src_scan,
                std::vector<Finding> &out)
{
    analyzeLockOrder(models, out);
    if (spec != nullptr)
        analyzeLayering(models, *spec, full_src_scan, out);
}

} // namespace diffy::lint
