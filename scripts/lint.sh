#!/usr/bin/env bash
# lint.sh — the static-analysis gate.
#
# Stage 1 (always): the annotated-mutex grep gate. Every lock in src/ must
# be an ntcs::Mutex from common/annotated.h — a bare std::mutex /
# std::condition_variable / std::lock_guard / std::unique_lock bypasses
# both the Clang thread-safety annotations and the runtime lock-rank
# validator, so its mere presence is a finding.
#
# Stage 2 (when clang-tidy is installed): clang-tidy with the repo's
# .clang-tidy over every translation unit in compile_commands.json.
# Fails on any finding (WarningsAsErrors: '*'). On toolchains without
# clang-tidy the stage is skipped with a notice — the grep gate and the
# -Wthread-safety Clang build remain the enforced floor.
#
# Usage: scripts/lint.sh [build-dir]   (default: build)
set -u
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
fail=0

echo "== lint: annotated-mutex grep gate =="
# common/annotated.h is the single permitted holder of the raw primitives
# (it wraps them); everything else in src/ must go through ntcs::Mutex.
# Exception: the schedule explorer's controller (analysis/sched.cpp) — it
# IS the thing interposing on ntcs::Mutex, so its own park/grant lock must
# be a raw primitive or every schedule point would recurse into itself.
violations=$(grep -rn \
  -e 'std::mutex' \
  -e 'std::recursive_mutex' \
  -e 'std::shared_mutex' \
  -e 'std::condition_variable' \
  -e 'std::lock_guard' \
  -e 'std::unique_lock' \
  -e 'std::scoped_lock' \
  src/ --include='*.h' --include='*.cpp' \
  | grep -v '^src/common/annotated\.h:' \
  | grep -v '^src/analysis/sched\.cpp:' || true)
if [ -n "$violations" ]; then
  echo "FAIL: raw locking primitives outside common/annotated.h:"
  echo "$violations"
  fail=1
else
  echo "ok: no raw locking primitives outside common/annotated.h"
fi

echo "== lint: trace static-ref grep gate =="
# Mirror of the metrics call-site rule for spans: instrumentation sites use
# the free helpers in common/trace.h (record_child / ScopedSpan / RootSpan /
# snapshot_spans ...), never a per-event SpanBuffer::instance() lookup.
# trace.cpp holds the one static reference behind those helpers.
violations=$(grep -rn 'SpanBuffer::instance' \
  src/ --include='*.h' --include='*.cpp' \
  | grep -v '^src/common/trace\.cpp:' \
  | grep -v '^src/common/trace\.h:' || true)
if [ -n "$violations" ]; then
  echo "FAIL: SpanBuffer::instance() outside common/trace.{h,cpp} — use the"
  echo "      free helpers in common/trace.h at instrumentation sites:"
  echo "$violations"
  fail=1
else
  echo "ok: span recording goes through the trace.h helpers"
fi

echo "== lint: metrics static-ref grep gate =="
# The metrics cost model (metrics.h header comment) only holds when each
# instrumentation site resolves its registry lookup once: a lookup takes
# the metrics.registry mutex and a map find, so a per-event lookup
# silently turns a relaxed add into a lock acquisition on a hot path.
# Two idioms are accepted, one per kind of registry:
#  - a root lookup, metrics::counter(...) / metrics::histogram(...), must
#    be a `static` local initializer (the cached-static-ref idiom) —
#    `static` on the call line or within the three lines above it;
#  - a scope lookup, <registry>.counter(...) / ->counter(...) (and
#    .histogram), must initialise a member: a default member initializer
#    or a constructor init list. Anywhere inside a function body it is
#    rejected, `static` or not — a function-local static would bind every
#    instance to the first one's scope.
# Gauges are exempt: gauge wiring is setup-time by construction.
violations=""
while IFS=: read -r file line _; do
  start=$((line > 3 ? line - 3 : 1))
  if ! sed -n "${start},${line}p" "$file" | grep -q 'static'; then
    violations="${violations}${file}:${line}"$'\n'
  fi
done < <(grep -rn \
  -e 'metrics::counter(' \
  -e 'metrics::histogram(' \
  src/ --include='*.h' --include='*.cpp' \
  | grep -v '^src/common/metrics\.h:' \
  | grep -v '^src/common/metrics\.cpp:' || true)
# Scope lookups: a brace scanner over comment- and literal-stripped
# source. A `{` whose head (the text since the previous `;`, `{` or `}`)
# names namespace/class/struct/union/enum opens a declaration scope;
# any other `{` opens code (a function or lambda body, a block, a braced
# initializer). A lookup is in a member initializer exactly when no code
# brace encloses it.
violations="${violations}$(python3 - <<'EOF'
import pathlib, re

LOOKUP = re.compile(r'(\.|->)\s*(counter|histogram)\s*\(')
SCOPE_HEAD = re.compile(r'\b(namespace|class|struct|union|enum)\b')

def strip(text):
    """Blank out comments and string/char literals, keeping newlines."""
    out, i, n = [], 0, len(text)
    while i < n:
        c = text[i]
        if text.startswith('//', i):
            j = text.find('\n', i)
            j = n if j < 0 else j
            out.append(' ' * (j - i))
            i = j
        elif text.startswith('/*', i):
            j = text.find('*/', i + 2)
            j = n if j < 0 else j + 2
            out.append(re.sub(r'[^\n]', ' ', text[i:j]))
            i = j
        elif c == '"' or (c == "'" and not (i and text[i - 1].isalnum())):
            # (A quote after a digit is a digit separator, not a literal.)
            j = i + 1
            while j < n and text[j] != c:
                j += 2 if text[j] == '\\' else 1
            out.append(c + re.sub(r'[^\n]', ' ', text[i + 1:j]) + c)
            i = j + 1
        else:
            out.append(c)
            i += 1
    return ''.join(out)

for path in sorted(pathlib.Path('src').rglob('*')):
    if path.suffix not in ('.h', '.cpp'):
        continue
    if path.as_posix() in ('src/common/metrics.h', 'src/common/metrics.cpp'):
        continue
    code = strip(path.read_text())
    lookups = {m.start() for m in LOOKUP.finditer(code)}
    stack, head_start = [], 0
    for i, c in enumerate(code):
        if i in lookups and 'code' in stack:
            print(f'{path.as_posix()}:{code.count(chr(10), 0, i) + 1}')
        if c == '{':
            head = code[head_start:i]
            stack.append('scope' if SCOPE_HEAD.search(head) else 'code')
            head_start = i + 1
        elif c == '}':
            if stack:
                stack.pop()
            head_start = i + 1
        elif c == ';':
            head_start = i + 1
EOF
)"
violations="${violations#$'\n'}"
if [ -n "$violations" ]; then
  echo "FAIL: per-event metrics registry lookups (cache the reference: a"
  echo "      root lookup as 'static metrics::Counter& c = metrics::counter(...);',"
  echo "      a scope lookup as a member initializer):"
  printf '%s\n' "$violations"
  fail=1
else
  echo "ok: every metrics lookup in src/ is a static root ref or a scope member"
fi

echo "== lint: STD-IF isolation grep gate =="
# The paper's portability claim, enforced: machine/network dependence is
# confined to the ND-Layer's backends. Raw socket headers may appear only
# in src/realnet/; concrete backend headers (simnet/, realnet/) may be
# named only by the backends themselves and by core/testbed.{h,cpp} — the
# one composition root that picks a substrate. Everything else in src/
# talks through the STD-IF (core/nd/backend.h).
violations=$(grep -rn \
  -e '#include [<"]sys/socket\.h' \
  -e '#include [<"]netinet/' \
  -e '#include [<"]arpa/inet\.h' \
  src/ --include='*.h' --include='*.cpp' \
  | grep -v '^src/realnet/' || true)
if [ -n "$violations" ]; then
  echo "FAIL: raw socket headers outside src/realnet/ — go through the"
  echo "      STD-IF (core/nd/backend.h):"
  echo "$violations"
  fail=1
else
  echo "ok: raw socket headers confined to src/realnet/"
fi
violations=$(grep -rn \
  -e '#include "simnet/' \
  -e '#include "realnet/' \
  src/ --include='*.h' --include='*.cpp' \
  | grep -v '^src/simnet/' \
  | grep -v '^src/realnet/' \
  | grep -v '^src/core/testbed\.h:' \
  | grep -v '^src/core/testbed\.cpp:' || true)
if [ -n "$violations" ]; then
  echo "FAIL: concrete backend headers outside the backends and the"
  echo "      testbed composition root:"
  echo "$violations"
  fail=1
else
  echo "ok: concrete backend types named only by backends + testbed"
fi

echo "== lint: bounded-queue grep gate =="
# Overload-control floor (DESIGN.md "Overload control"): every queue-typed
# declaration in src/ must carry a documented bound — a `// bound: ...`
# comment on the declaration line or within the three lines above it —
# naming the capacity and what happens at it. An unannotated std::deque /
# std::queue / std::priority_queue is exactly how the unbounded-growth
# bug this gate guards against gets reintroduced.
violations=""
while IFS=: read -r file line _; do
  start=$((line > 3 ? line - 3 : 1))
  if ! sed -n "${start},${line}p" "$file" | grep -q 'bound:'; then
    violations="${violations}${file}:${line}"$'\n'
  fi
done < <(grep -rn \
  -e 'std::deque<' \
  -e 'std::queue<' \
  -e 'std::priority_queue<' \
  src/ --include='*.h' --include='*.cpp')
if [ -n "$violations" ]; then
  echo "FAIL: queue declarations without a documented bound (add a"
  echo "      '// bound: <capacity> — <shed semantics>' comment):"
  printf '%s' "$violations"
  fail=1
else
  echo "ok: every queue declaration in src/ documents its bound"
fi

echo "== lint: atomic sync-comment grep gate =="
# Companion to the annotated-mutex gate for the lock-free residue: every
# raw std::atomic member in src/ must either be an ntcs::Atomic<T>
# (common/atomic.h — interposed by the schedule explorer, so explored
# tests see its happens-before edges) or carry a `// sync: ...` comment
# on the declaration line or within the three lines above it explaining
# the ordering contract. A bare std::atomic is invisible to the race
# detector — undocumented ones are exactly where the next silent
# ordering bug lands.
violations=""
while IFS=: read -r file line _; do
  start=$((line > 3 ? line - 3 : 1))
  if ! sed -n "${start},${line}p" "$file" | grep -q 'sync:'; then
    violations="${violations}${file}:${line}"$'\n'
  fi
done < <(grep -rn 'std::atomic<\|std::atomic_' \
  src/ --include='*.h' --include='*.cpp' \
  | grep -v '^src/analysis/' \
  | grep -v '^[^:]*:[0-9]*:[[:space:]]*//' || true)
if [ -n "$violations" ]; then
  echo "FAIL: raw std::atomic members without a '// sync: ...' ordering"
  echo "      comment (or use ntcs::Atomic<T> from common/atomic.h, which"
  echo "      the schedule explorer interposes on):"
  printf '%s' "$violations"
  fail=1
else
  echo "ok: every raw std::atomic in src/ documents its ordering contract"
fi

echo "== lint: lease-cache isolation grep gate =="
# Correct-under-churn caching depends on every cache touch going through
# the lease API in nsp_layer.cpp (freshness check, epoch purge, the
# leaf-scoped lease_mu_ contract). Direct access to the cache members
# anywhere else in src/ bypasses the TTL/epoch discipline — and holding
# the lease lock across an LCM call is precisely the rank inversion the
# kNspLease rank exists to catch. The NspLayer's own header declares the
# members; nsp_layer.cpp is the only implementation file allowed to name
# them.
violations=$(grep -rn \
  -e 'lease_cache_' \
  -e 'lease_names_' \
  -e 'shard_epochs_' \
  -e 'lease_mu_' \
  src/ --include='*.h' --include='*.cpp' \
  | grep -v '^src/core/nsp/nsp_layer\.h:' \
  | grep -v '^src/core/nsp/nsp_layer\.cpp:' || true)
if [ -n "$violations" ]; then
  echo "FAIL: NSP lease-cache state touched outside core/nsp/nsp_layer.{h,cpp}"
  echo "      — go through the lease API (lookup / forward / lease_peek):"
  echo "$violations"
  fail=1
else
  echo "ok: lease-cache state confined to core/nsp/nsp_layer.{h,cpp}"
fi

echo "== lint: one server loop, one thread owner grep gate =="
# Every server is an ordinary module (§3: the naming service is "nothing
# more than an application built on the Nucleus"): it hands ComMod::serve
# its handlers and Node::run starts the one service thread that runs
# them. So the only receive loop in src/ is serve() itself — `.receive(`
# / `->receive(` may appear only in core/ali/commod.cpp — and the naming
# service, the DRTS and URSA own no thread of their own.
violations=$(grep -rnE '(\.|->)receive\(' \
  src/ --include='*.h' --include='*.cpp' \
  | grep -v '^src/core/ali/commod\.cpp:' || true)
if [ -n "$violations" ]; then
  echo "FAIL: a receive loop outside core/ali/commod.cpp — serve requests"
  echo "      with ComMod::serve on the node's service thread (Node::run):"
  echo "$violations"
  fail=1
else
  echo "ok: ComMod::serve is the only receive loop in src/"
fi
violations=$(grep -rnE 'std::(j)?thread\b' \
  src/core/nsp src/drts src/ursa --include='*.h' --include='*.cpp' || true)
if [ -n "$violations" ]; then
  echo "FAIL: a thread in the naming service, the DRTS or URSA — run the"
  echo "      service through Node::run, which owns and stops it:"
  echo "$violations"
  fail=1
else
  echo "ok: no threads in core/nsp, drts or ursa"
fi

echo "== lint: clang-tidy =="
if ! command -v clang-tidy >/dev/null 2>&1; then
  # NTCS_LINT_STRICT=1 turns "tool missing" from a notice into a failure:
  # CI environments that are supposed to run the tidy stage must not pass
  # silently because an image dropped the package.
  if [ "${NTCS_LINT_STRICT:-0}" = "1" ]; then
    echo "FAIL: clang-tidy not installed and NTCS_LINT_STRICT=1"
    fail=1
  else
    echo "skip: clang-tidy not installed on this toolchain"
  fi
else
  if [ ! -f "$BUILD_DIR/compile_commands.json" ]; then
    echo "-- configuring $BUILD_DIR to produce compile_commands.json"
    cmake -B "$BUILD_DIR" -S . >/dev/null || exit 1
  fi
  # Lint every first-party translation unit; headers are covered through
  # HeaderFilterRegex in .clang-tidy.
  sources=$(find src tests bench examples -name '*.cpp' 2>/dev/null)
  if command -v run-clang-tidy >/dev/null 2>&1; then
    # shellcheck disable=SC2086
    run-clang-tidy -quiet -p "$BUILD_DIR" $sources || fail=1
  else
    for f in $sources; do
      clang-tidy --quiet -p "$BUILD_DIR" "$f" || fail=1
    done
  fi
fi

if [ "$fail" -ne 0 ]; then
  echo "lint: FAILED"
  exit 1
fi
echo "lint: OK"
