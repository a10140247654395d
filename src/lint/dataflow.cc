#include "lint/dataflow.h"

#include <algorithm>
#include <utility>

#include "common/string_util.h"
#include "lint/annotations.h"

namespace vsd::lint {

const std::set<std::string>& HeadKeywords() {
  static const std::set<std::string> kw = {
      "if",      "for",      "while",    "switch",        "catch",
      "return",  "sizeof",   "alignof",  "decltype",      "constexpr",
      "static_assert",       "assert",   "defined",       "new",
      "delete",  "throw",    "else",     "case",          "do",
      "alignas", "noexcept", "typename", "static_cast",   "const_cast",
      "dynamic_cast",        "reinterpret_cast",          "operator",
  };
  return kw;
}

std::vector<DfFunction> ExtractFunctions(const std::string& file,
                                         const std::vector<Token>& toks) {
  std::vector<DfFunction> fns;
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!IsIdent(toks[i]) || toks[i + 1].text != "(") continue;
    if (HeadKeywords().count(toks[i].text)) continue;

    // Name and optional A::B:: qualifier / ~ destructor marker.
    size_t q = i;
    std::string name = toks[i].text;
    if (q > 0 && toks[q - 1].text == "~") {
      name = "~" + name;
      --q;
    }
    std::string qualifier;
    while (q >= 2 && toks[q - 1].text == "::" && IsIdent(toks[q - 2])) {
      qualifier =
          qualifier.empty() ? toks[q - 2].text : toks[q - 2].text + "::" + qualifier;
      q -= 2;
    }
    // A member call (obj.Name(...), obj->Name(...)) is a use, not a
    // definition.
    if (q > 0 && (toks[q - 1].text == "." || toks[q - 1].text == "->")) continue;

    const size_t close = MatchForward(toks, i + 1, "(", ")");
    if (close >= toks.size()) break;

    // Walk trailing specifiers until the body '{' — or bail on anything
    // that marks a declaration, call, or initializer instead.
    size_t j = close + 1;
    bool ok = true;
    while (ok && j < toks.size()) {
      const std::string& t = toks[j].text;
      if (t == "{") break;
      if (t == "const" || t == "override" || t == "final" || t == "mutable" ||
          t == "&" || t == "&&") {
        ++j;
        continue;
      }
      if (t == "noexcept") {
        ++j;
        if (j < toks.size() && toks[j].text == "(") {
          j = MatchForward(toks, j, "(", ")") + 1;
        }
        continue;
      }
      // Thread-safety annotation macros (common/annotations.h) expand to
      // nothing; skip `VSD_REQUIRES(mu_)` and friends like a specifier.
      if (StartsWith(t, "VSD_") && j + 1 < toks.size() &&
          toks[j + 1].text == "(") {
        j = MatchForward(toks, j + 1, "(", ")") + 1;
        continue;
      }
      if (t == "->") {  // Trailing return type.
        ++j;
        int angle = 0;
        while (j < toks.size()) {
          const std::string& u = toks[j].text;
          if (angle == 0 && u == "{") break;
          if (angle == 0 &&
              (u == ";" || u == "," || u == ")" || u == "=" || u == "}")) {
            ok = false;
            break;
          }
          if (u == "<") ++angle;
          else if (u == ">") --angle;
          else if (u == ">>") angle -= 2;
          else if (u == "(") j = MatchForward(toks, j, "(", ")");
          ++j;
        }
        continue;
      }
      if (t == ":") {  // Constructor initializer list.
        ++j;
        while (j < toks.size()) {
          if (!IsIdent(toks[j])) {
            ok = false;
            break;
          }
          ++j;
          if (j < toks.size() && toks[j].text == "<") j = SkipAngles(toks, j);
          if (j >= toks.size() ||
              (toks[j].text != "(" && toks[j].text != "{")) {
            ok = false;
            break;
          }
          j = toks[j].text == "("
                  ? MatchForward(toks, j, "(", ")") + 1
                  : MatchForward(toks, j, "{", "}") + 1;
          if (j < toks.size() && toks[j].text == ",") {
            ++j;
            continue;
          }
          break;
        }
        if (ok && (j >= toks.size() || toks[j].text != "{")) ok = false;
        break;
      }
      ok = false;
      break;
    }
    if (!ok || j >= toks.size() || toks[j].text != "{") continue;
    const size_t body_close = MatchForward(toks, j, "{", "}");
    if (body_close >= toks.size()) continue;

    DfFunction fn;
    fn.file = file;
    fn.qualifier = qualifier;
    fn.name = name;
    fn.line = toks[i].line;
    fn.body_open = j;
    fn.body_close = body_close;
    for (size_t k = i + 2; k + 1 <= close && k < toks.size(); ++k) {
      if (!IsIdent(toks[k]) || HeadKeywords().count(toks[k].text)) continue;
      const std::string& nx = toks[k + 1].text;
      if (nx == "," || nx == ")" || nx == "=" || nx == "[") {
        fn.params.insert(toks[k].text);
      }
    }
    fns.push_back(std::move(fn));
    i = j;  // Resume at the body '{'; nested heads inside are re-scanned.
  }
  return fns;
}

std::set<std::string> CollectBodyLocals(const std::vector<Token>& toks,
                                        size_t body_open, size_t body_close) {
  static const std::set<std::string> kNotType = {
      "return", "else",     "delete", "new",      "throw",  "case",
      "goto",   "do",       "public", "private",  "protected",
      "break",  "continue", "struct", "class",    "enum",
  };
  std::set<std::string> locals;
  for (size_t k = body_open + 1; k + 1 < body_close && k < toks.size(); ++k) {
    if (!IsIdent(toks[k]) || HeadKeywords().count(toks[k].text)) continue;
    const Token& prev = toks[k - 1];
    const Token& next = toks[k + 1];
    const auto type_ish = [](const Token& t) {
      return (IsIdent(t) && !kNotType.count(t.text) &&
              !HeadKeywords().count(t.text)) ||
             t.text == ">";
    };
    // A declarator sigil only counts when a type precedes it: `int* p`
    // and `Foo& r` declare, but the `&`/`*` in `f(&x)` or `= &v[0]` are
    // address-of/deref operators and `x`/`v` are not being declared.
    const bool sigil =
        prev.text == "*" || prev.text == "&" || prev.text == "&&";
    const bool type_before =
        sigil ? (k >= 2 && type_ish(toks[k - 2])) : type_ish(prev);
    if (!type_before) continue;
    if (next.text == "=" || next.text == ";" || next.text == "(" ||
        next.text == "{" || next.text == "[") {
      locals.insert(toks[k].text);
    }
  }
  return locals;
}

void DataflowProgram::AddFile(const std::string& path, const LexResult& lex) {
  files_.push_back(path);
  tokens_[path] = lex.tokens;
  const std::vector<ClassExtent> extents = FindClassExtents(tokens_[path]);
  for (DfFunction& fn : ExtractFunctions(path, tokens_[path])) {
    if (fn.qualifier.empty()) {
      // Inline member functions carry no lexical qualifier; the innermost
      // class extent containing the body names them, which is what makes
      // member-mutex lock identities ("ServeStats::mu_") consistent between
      // header-inline and out-of-class definitions.
      size_t innermost = 0;
      for (const ClassExtent& c : extents) {
        if (fn.body_open > c.body_open && fn.body_close < c.body_close &&
            (fn.qualifier.empty() || c.body_open > innermost)) {
          fn.qualifier = c.name;
          innermost = c.body_open;
        }
      }
    }
    by_name_[fn.name].push_back(functions_.size());
    functions_.push_back(std::move(fn));
  }
}

const std::vector<Token>& DataflowProgram::tokens(
    const std::string& file) const {
  static const std::vector<Token> kEmpty;
  auto it = tokens_.find(file);
  return it == tokens_.end() ? kEmpty : it->second;
}

std::vector<const DfFunction*> DataflowProgram::Resolve(
    const DfFunction& caller, const std::string& name) const {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) return {};
  std::vector<const DfFunction*> all;
  for (size_t idx : it->second) all.push_back(&functions_[idx]);

  if (!caller.qualifier.empty()) {
    std::vector<const DfFunction*> same_class;
    for (const DfFunction* f : all) {
      if (f->qualifier == caller.qualifier) same_class.push_back(f);
    }
    if (!same_class.empty()) return same_class;
  }
  std::vector<const DfFunction*> same_file;
  for (const DfFunction* f : all) {
    if (f->file == caller.file) same_file.push_back(f);
  }
  if (!same_file.empty()) return same_file;

  std::set<std::string> files;
  for (const DfFunction* f : all) files.insert(f->file);
  if (files.size() == 1) return all;
  return {};  // Ambiguous across files (e.g. Sigmoid): no link, no false edge.
}

// ---------------------------------------------------------------------------
// Held-set walk (guarded-by)
// ---------------------------------------------------------------------------

const std::set<std::string>& GuardTypes() {
  static const std::set<std::string> kGuards = {
      "lock_guard", "unique_lock", "shared_lock", "scoped_lock",
  };
  return kGuards;
}

std::string WalkBackChain(const std::vector<Token>& toks, size_t e) {
  if (e >= toks.size() || !IsIdent(toks[e])) return {};
  std::vector<std::string> parts{toks[e].text};
  while (e >= 2 && (toks[e - 1].text == "." || toks[e - 1].text == "->") &&
         IsIdent(toks[e - 2])) {
    parts.insert(parts.begin(), toks[e - 2].text);
    e -= 2;
  }
  if (parts.front() == "this") parts.erase(parts.begin());
  std::string chain;
  for (const std::string& p : parts) {
    if (!chain.empty()) chain += ".";
    chain += p;
  }
  return chain;
}

std::string LockId(const DfFunction& fn, const std::set<std::string>& locals,
                   const std::string& chain) {
  const std::string base = chain.substr(0, chain.find('.'));
  if (locals.count(base) || fn.params.count(base)) {
    return fn.QualifiedName() + "::" + chain;
  }
  if (!fn.qualifier.empty()) return fn.qualifier + "::" + chain;
  return fn.file + "::" + chain;
}

bool IsStdQualified(const std::vector<Token>& toks, size_t k) {
  static const std::set<std::string> kStdish = {
      "std", "chrono", "this_thread", "fs", "filesystem", "testing",
  };
  while (k >= 2 && toks[k - 1].text == "::" && IsIdent(toks[k - 2])) k -= 2;
  return kStdish.count(toks[k].text) > 0;
}

std::vector<std::string> GuardArgChains(const std::vector<Token>& toks,
                                        size_t open, size_t close) {
  static const std::set<std::string> kTags = {"defer_lock", "adopt_lock",
                                              "try_to_lock"};
  std::vector<std::string> chains;
  size_t arg_begin = open + 1;
  int depth = 0;
  for (size_t k = open + 1; k <= close && k < toks.size(); ++k) {
    const std::string& t = toks[k].text;
    const bool arg_end = k == close || (depth == 0 && t == ",");
    if (!arg_end) {
      if (t == "(" || t == "[" || t == "{") ++depth;
      else if (t == ")" || t == "]" || t == "}") --depth;
      continue;
    }
    // Parse [arg_begin, k): optional * / & deref, then an ident chain.
    size_t a = arg_begin;
    while (a < k && (toks[a].text == "*" || toks[a].text == "&")) ++a;
    bool simple = a < k;
    bool tagged = false;
    for (size_t m = a; m < k; ++m) {
      if (kTags.count(toks[m].text)) tagged = true;
      if (IsIdent(toks[m]) || toks[m].text == "." || toks[m].text == "->" ||
          toks[m].text == "::") {
        continue;
      }
      simple = false;
    }
    if (simple && !tagged && a < k) {
      const std::string chain = WalkBackChain(toks, k - 1);
      if (!chain.empty()) chains.push_back(chain);
    }
    arg_begin = k + 1;
  }
  return chains;
}

void ScanFunctionLocks(const std::vector<Token>& toks, const DfFunction& fn,
                       const IdentHook& on_ident,
                       const std::set<std::string>& initial) {
  const std::set<std::string> locals =
      CollectBodyLocals(toks, fn.body_open, fn.body_close);
  std::vector<HeldLock> held;
  for (const std::string& id : initial) {
    held.push_back(HeldLock{id, "", 0, true});
  }
  // Every guard declaration in scope, held or unlocked: what a re-lock
  // through the guard variable acquires.
  std::vector<HeldLock> guards;
  int depth = 0;
  for (size_t k = fn.body_open + 1; k < fn.body_close && k < toks.size();
       ++k) {
    const std::string& t = toks[k].text;
    if (t == "{") {
      ++depth;
      continue;
    }
    if (t == "}") {
      --depth;
      auto out_of_scope = [&](const HeldLock& h) {
        return !h.manual && h.depth > depth;
      };
      held.erase(std::remove_if(held.begin(), held.end(), out_of_scope),
                 held.end());
      guards.erase(std::remove_if(guards.begin(), guards.end(), out_of_scope),
                   guards.end());
      continue;
    }
    if (!IsIdent(toks[k])) continue;

    // Guard declaration: lock_guard<...> name(mu[, mu2...]).
    if (GuardTypes().count(t)) {
      size_t j = k + 1;
      if (j < toks.size() && toks[j].text == "<") j = SkipAngles(toks, j);
      if (j >= toks.size() || !IsIdent(toks[j])) continue;
      const std::string guard = toks[j].text;
      ++j;
      if (j >= toks.size() || (toks[j].text != "(" && toks[j].text != "{")) {
        continue;
      }
      const bool paren = toks[j].text == "(";
      const size_t close = paren ? MatchForward(toks, j, "(", ")")
                                 : MatchForward(toks, j, "{", "}");
      for (const std::string& chain : GuardArgChains(toks, j, close)) {
        const HeldLock h{LockId(fn, locals, chain), guard, depth, false};
        held.push_back(h);
        guards.push_back(h);
      }
      k = close;
      continue;
    }

    // Manual mu.lock() / mu.unlock() (and shared variants).
    if ((t == "lock" || t == "lock_shared" || t == "unlock" ||
         t == "unlock_shared") &&
        k >= 2 && (toks[k - 1].text == "." || toks[k - 1].text == "->") &&
        k + 1 < toks.size() && toks[k + 1].text == "(") {
      const std::string chain = WalkBackChain(toks, k - 2);
      if (chain.empty()) continue;
      const std::string id = LockId(fn, locals, chain);
      if (t == "lock" || t == "lock_shared") {
        // A re-lock through a guard variable (defer_lock) whose mutex is
        // still in `held` adds nothing. After the guard's unlock() it
        // re-acquires the guard's mutex, until the guard's scope ends.
        bool guard_held = false;
        for (const HeldLock& h : held) guard_held |= h.guard == chain;
        if (guard_held) continue;
        HeldLock acquired{id, "", depth, true};
        for (const HeldLock& g : guards) {
          if (g.guard == chain) acquired = g;  // The innermost declaration.
        }
        held.push_back(acquired);
      } else {
        held.erase(std::remove_if(held.begin(), held.end(),
                                  [&](const HeldLock& h) {
                                    return h.guard == chain || h.id == id;
                                  }),
                   held.end());
      }
      continue;
    }

    on_ident(k, held);
  }
}

// ---------------------------------------------------------------------------
// nondet-taint
// ---------------------------------------------------------------------------

const std::set<std::string>& WallClockNames() {
  static const std::set<std::string> kNames = {
      "system_clock", "high_resolution_clock", "time",
      "localtime",    "gmtime",                "ctime",
      "strftime",     "clock",                 "timespec_get",
      "gettimeofday", "clock_gettime",
  };
  return kNames;
}

const std::set<std::string>& ThreadIdNames() {
  static const std::set<std::string> kNames = {
      "get_id", "pthread_self", "gettid",
  };
  return kNames;
}

std::vector<size_t> SharedRngDraws(const std::vector<Token>& toks,
                                   size_t begin, size_t end) {
  static const std::set<std::string> kDrawMethods = {
      "Next",        "Uniform",  "UniformInt",
      "Normal",      "Bernoulli", "Shuffle",
      "SampleIndex", "SampleWithoutReplacement", "Fork",
  };
  std::vector<size_t> draws;
  std::set<size_t> seen;  // A draw inside nested loops is listed once.
  for (const CallExtent& call :
       CallExtents(toks, begin, end, {"ParallelFor", "ParallelMap"})) {
    const size_t open = call.open;
    const size_t close = call.close;
    // Identifiers declared inside the call extent (Rng r / Rng& r / auto r)
    // are per-iteration locals and safe to draw from.
    std::set<std::string> locals;
    for (size_t k = open + 1; k + 1 < close; ++k) {
      if (!IsIdent(toks[k]) ||
          (toks[k].text != "Rng" && toks[k].text != "auto")) {
        continue;
      }
      size_t m = k + 1;
      while (m < close && (toks[m].text == "&" || toks[m].text == "*" ||
                           toks[m].text == "const")) {
        ++m;
      }
      if (m < close && IsIdent(toks[m])) locals.insert(toks[m].text);
    }
    for (size_t k = open + 2; k + 1 < close; ++k) {
      if (!IsIdent(toks[k]) || !kDrawMethods.count(toks[k].text)) continue;
      const std::string& access = toks[k - 1].text;
      if (access != "." && access != "->") continue;
      if (toks[k + 1].text != "(") continue;
      // streams[i].Uniform() / MakeRng(i).Next(): the receiver is a
      // per-index expression, which is exactly the sanctioned pattern.
      // Qualified receivers (obj.rng.Next) still end in an identifier, and
      // a shared nested member is just as racy.
      const Token& recv = toks[k - 2];
      if (recv.text == "]" || recv.text == ")") continue;
      if (!IsIdent(recv) || locals.count(recv.text)) continue;
      if (seen.insert(k).second) draws.push_back(k);
    }
  }
  return draws;
}

std::vector<TaintSource> FindNondetSources(const std::string& path,
                                           const std::vector<Token>& toks,
                                           const DfFunction& fn) {
  (void)path;
  static const std::set<std::string> kIntTypes = {
      "uintptr_t", "intptr_t", "size_t",    "uint64_t", "uint32_t",
      "int64_t",   "long",     "ptrdiff_t", "unsigned",
  };

  std::vector<TaintSource> seeds;
  for (size_t k = fn.body_open + 1; k < fn.body_close && k < toks.size();
       ++k) {
    if (!IsIdent(toks[k])) continue;
    const std::string& t = toks[k].text;
    const bool member =
        k > 0 && (toks[k - 1].text == "." || toks[k - 1].text == "->");
    // Clock/thread-id sources must look like calls or scope uses
    // (time(...), system_clock::now()); a local merely *named* `time` is
    // not a source.
    const bool call_like =
        k + 1 < toks.size() &&
        (toks[k + 1].text == "(" || toks[k + 1].text == "::");
    if (WallClockNames().count(t) && !member && call_like) {
      seeds.push_back(TaintSource{k, toks[k].line, "wall clock '" + t + "'"});
    } else if (ThreadIdNames().count(t) && call_like) {
      seeds.push_back(TaintSource{k, toks[k].line, "thread id '" + t + "'"});
    } else if (t == "reinterpret_cast" && k + 1 < toks.size() &&
               toks[k + 1].text == "<") {
      const size_t close = SkipAngles(toks, k + 1);
      for (size_t m = k + 2; m + 1 < close; ++m) {
        if (IsIdent(toks[m]) && kIntTypes.count(toks[m].text)) {
          seeds.push_back(TaintSource{k, toks[k].line,
                                      "pointer-to-integer cast ('" +
                                          toks[m].text + "')"});
          break;
        }
      }
    }
  }

  // Shared-Rng draws inside ParallelFor bodies: the drawn value is
  // scheduling-dependent.
  for (size_t k : SharedRngDraws(toks, fn.body_open + 1, fn.body_close)) {
    seeds.push_back(TaintSource{k, toks[k].line,
                                "shared Rng draw '" + toks[k - 2].text + "." +
                                    toks[k].text +
                                    "()' inside a ParallelFor body"});
  }
  return seeds;
}

namespace {

/// Leftmost identifier of the lvalue chain ending at `e` (walking back over
/// subscripts and . / -> links): the tainted "root" object of an
/// assignment target like `result.scores[j]`.
std::string LhsRoot(const std::vector<Token>& toks, size_t lo, size_t e) {
  while (e > lo && toks[e].text == "]") {  // Skip a subscript backwards.
    const size_t open = MatchBackward(toks, e, "[", "]");
    if (open >= toks.size() || open <= lo) return {};
    e = open - 1;
  }
  if (e < lo || !IsIdent(toks[e])) return {};
  std::string root = toks[e].text;
  while (e >= lo + 2 &&
         (toks[e - 1].text == "." || toks[e - 1].text == "->") &&
         IsIdent(toks[e - 2])) {
    e -= 2;
    root = toks[e].text;
  }
  return root == "this" ? std::string() : root;
}

struct TaintAssign {
  std::string lhs;
  std::vector<std::string> rhs_idents;
  int rhs_seed = -1;  ///< Index into seeds, or -1.
};

}  // namespace

std::map<std::string, TaintSource> PropagateTaint(
    const std::vector<Token>& toks, const DfFunction& fn,
    const std::vector<TaintSource>& seeds) {
  static const std::set<std::string> kMutators = {
      "push_back", "emplace_back", "insert", "emplace",
      "append",    "push",         "assign",
  };
  std::map<size_t, size_t> seed_at;  // token index -> seeds index
  for (size_t s = 0; s < seeds.size(); ++s) seed_at[seeds[s].token] = s;

  auto collect_rhs = [&](size_t begin, size_t end, TaintAssign* a) {
    for (size_t m = begin; m < end && m < toks.size(); ++m) {
      if (auto it = seed_at.find(m); it != seed_at.end() && a->rhs_seed < 0) {
        a->rhs_seed = static_cast<int>(it->second);
      }
      if (IsIdent(toks[m])) a->rhs_idents.push_back(toks[m].text);
    }
  };

  std::vector<TaintAssign> assigns;
  for (size_t k = fn.body_open + 1; k < fn.body_close && k < toks.size();
       ++k) {
    // Assignment / compound assignment.
    if (toks[k].kind == TokenKind::kPunct && AssignOps().count(toks[k].text)) {
      const std::string lhs = LhsRoot(toks, fn.body_open + 1, k - 1);
      if (lhs.empty()) continue;
      size_t end = k + 1;
      while (end < fn.body_close && toks[end].text != ";" &&
             toks[end].text != "{" && toks[end].text != "}") {
        ++end;
      }
      TaintAssign a;
      a.lhs = lhs;
      collect_rhs(k + 1, end, &a);
      if (!a.rhs_idents.empty() || a.rhs_seed >= 0) {
        assigns.push_back(std::move(a));
      }
      continue;
    }
    // Container mutator: receiver absorbs taint from the arguments.
    if (IsIdent(toks[k]) && kMutators.count(toks[k].text) && k >= 2 &&
        (toks[k - 1].text == "." || toks[k - 1].text == "->") &&
        k + 1 < toks.size() && toks[k + 1].text == "(") {
      const std::string recv = LhsRoot(toks, fn.body_open + 1, k - 2);
      if (recv.empty()) continue;
      const size_t close = MatchForward(toks, k + 1, "(", ")");
      TaintAssign a;
      a.lhs = recv;
      collect_rhs(k + 2, close, &a);
      if (!a.rhs_idents.empty() || a.rhs_seed >= 0) {
        assigns.push_back(std::move(a));
      }
      k = k + 1;
    }
  }

  std::map<std::string, TaintSource> taint;
  bool changed = true;
  for (int pass = 0; changed && pass < 8; ++pass) {
    changed = false;
    for (const TaintAssign& a : assigns) {
      if (taint.count(a.lhs)) continue;
      if (a.rhs_seed >= 0) {
        taint[a.lhs] = seeds[a.rhs_seed];
        changed = true;
        continue;
      }
      for (const std::string& id : a.rhs_idents) {
        auto it = taint.find(id);
        if (it != taint.end()) {
          taint[a.lhs] = it->second;
          changed = true;
          break;
        }
      }
    }
  }
  return taint;
}

std::vector<Finding> CheckNondetTaint(const std::string& path,
                                      const LexResult& lex) {
  static const std::set<std::string> kSinkCalls = {
      "AddRow", "WriteCsv", "WriteJson",
  };
  const bool return_is_sink =
      StartsWith(path, "src/core/") || StartsWith(path, "bench/");

  const std::vector<Token>& toks = lex.tokens;
  std::vector<Finding> findings;
  std::set<std::pair<int, std::string>> seen;  // (line, message) dedup.
  auto report = [&](int line, const std::string& message) {
    if (seen.insert({line, message}).second) {
      findings.push_back(Finding{path, line, "nondet-taint", message});
    }
  };

  for (const DfFunction& fn : ExtractFunctions(path, toks)) {
    const std::vector<TaintSource> seeds = FindNondetSources(path, toks, fn);
    if (seeds.empty()) continue;
    std::map<size_t, size_t> seed_at;
    for (size_t s = 0; s < seeds.size(); ++s) seed_at[seeds[s].token] = s;
    const std::map<std::string, TaintSource> taint =
        PropagateTaint(toks, fn, seeds);

    auto scan_args = [&](size_t begin, size_t end, const std::string& sink,
                         int line) {
      for (size_t m = begin; m < end && m < toks.size(); ++m) {
        if (auto it = seed_at.find(m); it != seed_at.end()) {
          report(line, seeds[it->second].what + " flows into " + sink +
                           "; results must be a pure function of inputs — "
                           "pass deterministic data instead");
          return;
        }
        if (IsIdent(toks[m])) {
          auto it = taint.find(toks[m].text);
          if (it != taint.end()) {
            report(line, "'" + toks[m].text + "' is derived from " +
                             it->second.what + " (line " +
                             std::to_string(it->second.line) +
                             ") and flows into " + sink +
                             "; results must be a pure function of inputs — "
                             "pass deterministic data instead");
            return;
          }
        }
      }
    };

    for (size_t k = fn.body_open + 1; k < fn.body_close && k < toks.size();
         ++k) {
      if (!IsIdent(toks[k])) continue;
      const std::string& t = toks[k].text;
      if (kSinkCalls.count(t) && k + 1 < toks.size() &&
          toks[k + 1].text == "(") {
        const size_t close = MatchForward(toks, k + 1, "(", ")");
        scan_args(k + 2, close, "'" + t + "()'", toks[k].line);
      } else if (t == "return" && return_is_sink) {
        size_t end = k + 1;
        while (end < fn.body_close && toks[end].text != ";") ++end;
        scan_args(k + 1, end, "a returned result value", toks[k].line);
      }
    }
  }
  return findings;
}

// ---------------------------------------------------------------------------
// hot-path-alloc
// ---------------------------------------------------------------------------

namespace {

/// Reports every allocating token in [begin, end). `where` names the hot
/// path for the message.
void ScanAllocs(const std::string& file, const std::vector<Token>& toks,
                size_t begin, size_t end, const std::string& where,
                std::vector<Finding>* findings) {
  static const std::set<std::string> kMemberAllocs = {
      "push_back", "emplace_back", "resize", "reserve",
      "insert",    "emplace",      "append", "substr",
  };
  static const std::set<std::string> kFreeAllocs = {
      "make_unique", "make_shared", "to_string",
  };
  auto report = [&](int line, const std::string& what) {
    findings->push_back(Finding{
        file, line, "hot-path-alloc",
        what + " allocates on a hot path (" + where +
            "); hot loops must reuse pre-sized buffers — hoist the "
            "allocation out of the loop or stage into a per-iteration "
            "buffer sized up front"});
  };
  for (size_t k = begin; k < end && k + 1 < toks.size(); ++k) {
    if (!IsIdent(toks[k])) continue;
    const std::string& t = toks[k].text;
    const std::string& prev = k > 0 ? toks[k - 1].text : std::string();
    if (t == "new") {
      if (prev != "operator" && prev != "." && prev != "->") {
        report(toks[k].line, "'new'");
      }
      continue;
    }
    if (kMemberAllocs.count(t) && (prev == "." || prev == "->") &&
        toks[k + 1].text == "(") {
      report(toks[k].line, "'" + t + "()'");
      continue;
    }
    if (kFreeAllocs.count(t) && prev != "." && prev != "->" &&
        (toks[k + 1].text == "(" || toks[k + 1].text == "<")) {
      report(toks[k].line, "'" + t + "'");
      continue;
    }
    // String growth: `s += "..."` (string-literal append grows the buffer).
    if (k + 2 < end && k + 2 < toks.size() && toks[k + 1].text == "+=" &&
        toks[k + 2].kind == TokenKind::kString) {
      report(toks[k + 1].line, "'+=' on a string");
    }
  }
}

bool IsExecuteFn(const DfFunction& fn) {
  return fn.name == "Execute" &&
         (fn.qualifier == "GraphExecutor" ||
          EndsWith(fn.qualifier, "::GraphExecutor"));
}

}  // namespace

std::vector<Finding> CheckHotPathAlloc(const DataflowProgram& program) {
  std::vector<Finding> findings;

  for (const DfFunction& fn : program.functions()) {
    const std::vector<Token>& toks = program.tokens(fn.file);
    // The entry points and the backend files beside them (kernels_*.cc),
    // whose loops run inside Execute one call below the entry points.
    const bool in_kernels = StartsWith(fn.file, "src/tensor/kernels");
    const bool is_execute = IsExecuteFn(fn);
    if (in_kernels) {
      ScanAllocs(fn.file, toks, fn.body_open + 1, fn.body_close,
                 "kernel '" + fn.QualifiedName() + "' in src/tensor/kernels",
                 &findings);
    }
    if (!is_execute) continue;
    ScanAllocs(fn.file, toks, fn.body_open + 1, fn.body_close,
               "GraphExecutor::Execute — the zero-allocation contract of "
               "tests/graph_exec_test.cc",
               &findings);
    // One level of resolved callees: allocations there break the same
    // runtime contract, just one frame down.
    for (size_t k = fn.body_open + 1;
         k + 1 < fn.body_close && k + 1 < toks.size(); ++k) {
      if (!IsIdent(toks[k]) || toks[k + 1].text != "(" ||
          HeadKeywords().count(toks[k].text)) {
        continue;
      }
      const std::string& prev = toks[k - 1].text;
      if (prev == "." || prev == "->") continue;
      for (const DfFunction* callee : program.Resolve(fn, toks[k].text)) {
        if (callee->body_open == fn.body_open &&
            callee->file == fn.file) {
          continue;  // Recursion guard.
        }
        std::string where = "'";
        where += callee->QualifiedName();
        where += "' reachable from GraphExecutor::Execute via the call at ";
        where += fn.file;
        where += ":";
        where += std::to_string(toks[k].line);
        ScanAllocs(callee->file, program.tokens(callee->file),
                   callee->body_open + 1, callee->body_close, where,
                   &findings);
      }
    }
  }

  // Explainer perturbation loops: every ParallelFor/ParallelMap call extent
  // in src/explain/ is a hot loop body. A loop nested in a scanned one is
  // already covered, so each allocation is reported once.
  for (const std::string& file : program.files()) {
    if (!StartsWith(file, "src/explain/")) continue;
    const std::vector<Token>& toks = program.tokens(file);
    size_t scanned_to = 0;
    for (const CallExtent& call :
         CallExtents(toks, 0, toks.size(), {"ParallelFor", "ParallelMap"})) {
      if (call.open < scanned_to) continue;
      ScanAllocs(file, toks, call.open + 1, call.close,
                 "ParallelFor body in an explainer loop", &findings);
      scanned_to = call.close;
    }
  }
  return findings;
}

}  // namespace vsd::lint
