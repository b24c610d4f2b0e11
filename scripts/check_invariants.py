#!/usr/bin/env python3
"""Repo-specific invariant linter.

Enforces the concurrency and memory-safety conventions documented in
DESIGN.md ("Concurrency model") over src/, tests/, bench/ and examples/:

  1. No raw synchronization or thread primitives outside src/common/ —
     everything goes through the annotated cool::Mutex / cool::CondVar /
     cool::Thread wrappers so Clang's -Wthread-safety sees every lock.
  2. No memcpy / reinterpret_cast outside src/common/ and src/cdr/ — raw
     byte reinterpretation is confined to the buffer and CDR layers.
  3. CDR decoder primitives must bounds-check: every function in
     cdr/decoder.h that touches data_ must call remaining() or Underrun.
  4. Condition variables are notified with the lock held (destruction
     safety): every CondVar Notify call must be lexically preceded by a
     MutexLock/WriterMutexLock in the same function.
  5. The include graph between src/ layer directories must respect the
     layer order (no upward or cyclic includes).
  6. No bare new/delete outside an allowlist of factory functions; heap
     objects are owned by unique_ptr/shared_ptr from birth.
  7. No NotifyAll on the data path (src/dacapo, src/transport, src/giop,
     src/orb, src/stream) outside shutdown functions (Close/Stop/Shutdown
     and destructors). Mailboxes and queues there are single-consumer:
     hot-path wakeups must be NotifyOne so a push wakes exactly one
     thread; broadcasts are reserved for teardown.
  8. No blocking Receive/Recv-family call while a MutexLock is live, in
     src/giop and src/orb: a lock held across channel I/O serializes every
     caller behind one in-flight exchange, which is exactly what the
     multiplexed GIOP engines exist to avoid. Locks must be released (or
     scoped out) before draining the channel.
  9. No begin()/end() buffer copies on the invocation hot path (src/giop,
     src/orb): constructs like std::vector<...>(view.begin(), view.end())
     or seq.assign(v.begin(), v.end()) re-materialize a buffer the pooled
     zero-copy path already owns. Encode into a BufferPool lease, pass
     spans, or move the ByteBuffer instead. Cold-path exceptions live in
     BUFFER_COPY_ALLOWLIST.
  10. The reactor owns event-driven I/O in src/transport and src/giop: no
     new thread spawns and no blocking ReceiveMessage call sites outside
     the allowlisted machinery (reactor/epoll workers, the shared dispatch
     pool, and the blocking convenience calls of the ComChannel base). A
     connection or binding must cost a reactor registration, not a thread
     — additions go through Reactor::Add or get an allowlist entry with a
     justification.
  11. No raw std::condition_variable and no this_thread::sleep_for /
     sleep_until in reactor- or dispatch-callback territory (src/transport,
     src/giop): reactor callbacks and pool upcalls run to completion on
     shared workers, so a sleep or an unannotated wait there stalls every
     connection pinned to that worker. Timed waits go through
     cool::CondVar::WaitUntil; deliberate blocking sites are marked with
     deadlock::ScopedBlockingAllowed and reviewed.
  12. Lock-rank cross-check: the LockRank enum (src/common/lock_rank.h),
     the machine-readable table (scripts/lock_order.yaml), and the actual
     Mutex/SharedMutex member declarations in src/ must agree. Every named
     mutex must be constructed with {LockRank::kX, "ns::Class::member"},
     appear in the yaml with the same rank, and any COOL_ACQUIRED_BEFORE /
     COOL_ACQUIRED_AFTER annotation must be consistent with the ranks
     (an acquired_after(x) lock may not out-rank x). The runtime detector
     (COOL_DEADLOCK_DETECTOR=ON) enforces the same order dynamically.
  15. Per-connection memory diet (DESIGN.md §14): the connection-state
     headers (src/orb/orb.h, src/transport/*_channel.h) may not grow new
     std::unordered_map / std::deque members (eager per-instance heap) or
     raw std::vector<std::uint8_t> buffers (bypass the BufferPool lease)
     without a PER_CONN_WAIVER comment.

Exit status 0 when clean; 1 with findings on stdout otherwise.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

CODE_DIRS = ["src", "tests", "bench", "examples"]

# Layer ranks: an #include from directory A to directory B is legal iff
# rank[B] <= rank[A]. Derived from the actual dependency structure (common
# at the bottom, stream at the top); keep in sync with DESIGN.md.
LAYER_RANK = {
    "common": 0,
    "cdr": 1,
    "sim": 1,
    "qos": 2,
    "idl": 2,
    "dacapo": 3,
    "transport": 4,
    "giop": 5,
    "orb": 6,
    "stream": 7,
}

# Raw primitives that must not appear outside src/common/ (rule 1).
RAW_SYNC = re.compile(
    r"std::(mutex|shared_mutex|recursive_mutex|timed_mutex|"
    r"condition_variable(_any)?|thread|jthread|lock_guard|unique_lock|"
    r"scoped_lock|shared_lock)\b"
)

# Raw byte reinterpretation (rule 2).
RAW_BYTES = re.compile(r"\b(memcpy|reinterpret_cast)\b")

# new/delete allowlist (rule 6): file -> substring that must appear on the
# offending line for it to pass. These are private-constructor factories
# (std::make_unique cannot reach the constructor) and one leaky singleton.
NEW_ALLOWLIST = {
    "src/dacapo/graph.cc": ["new MechanismRegistry()"],  # leaky singleton
    "src/dacapo/session.cc": ["new Session("],  # private ctor, factory-wrapped
    "src/stream/stream_adapter.cc": ["new FlowConnection("],  # same pattern
    "src/common/buffer_pool.cc": ["new BufferPool()"],  # leaky singleton
    "src/common/deadlock.cc": ["new State()"],  # leaky singleton (detector)
}

# Whole files exempt from rule 6: the benchmark allocation hook *defines*
# the global operator new/delete overloads it counts with.
NEW_DELETE_EXEMPT_FILES = {"bench/alloc_hook.cc"}

NEW_RE = re.compile(r"\bnew\b\s+[A-Za-z_]")
DELETE_RE = re.compile(r"\bdelete\b\s+[A-Za-z_*(]|\bdelete\[\]")


def is_digit_separator(text: str, i: int) -> bool:
    """True when the ' at text[i] is a C++14 digit separator (100'000).

    A separator follows a digit of a number; a char literal never follows
    an alphanumeric, except after an encoding prefix (L'x', u8'x'), which
    starts with a letter rather than a digit.
    """
    j = i
    while j > 0 and (text[j - 1].isalnum() or text[j - 1] in "_.'"):
        j -= 1
    return j < i and text[j].isdigit()


def strip_comments(text: str) -> str:
    """Blank out // and /* */ comments, KEEPING string literals.

    Needed wherever the rule inspects quoted text — e.g. the #include path
    in the layering check, which strip_comments_and_strings would erase.
    """
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            out.append("\n" * text.count("\n", i, j))
            i = j
        elif c == '"' or (c == "'" and not is_digit_separator(text, i)):
            quote = c
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == quote:
                    break
                j += 1
            j = min(j + 1, n)
            out.append(text[i:j])
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments and string/char literals, preserving line structure."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            out.append("\n" * text.count("\n", i, j))
            i = j
        elif c == '"' or (c == "'" and not is_digit_separator(text, i)):
            quote = c
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == quote:
                    break
                j += 1
            i = min(j + 1, n)
        else:
            out.append(c)
            i += 1
    return "".join(out)


def code_files() -> list[Path]:
    files = []
    for d in CODE_DIRS:
        root = REPO / d
        if root.is_dir():
            files.extend(sorted(root.rglob("*.h")))
            files.extend(sorted(root.rglob("*.cc")))
    return files


def rel(path: Path) -> str:
    return str(path.relative_to(REPO))


def check_raw_sync(path: Path, clean: str, findings: list[str]) -> None:
    if rel(path).startswith("src/common/"):
        return
    for lineno, line in enumerate(clean.splitlines(), 1):
        m = RAW_SYNC.search(line)
        if m:
            findings.append(
                f"{rel(path)}:{lineno}: raw std::{m.group(1)} outside "
                f"src/common/ — use the annotated cool:: wrappers "
                f"(common/mutex.h, common/thread.h)"
            )


# Rule 2 covers bench/ and examples/ too; tests keep latitude for
# byte-level assertions. Justified exceptions only.
RAW_BYTES_ALLOWLIST = {
    # Paper-faithful char*-API example: casts a std::string payload to the
    # byte span the transport takes; no aliasing beyond char <-> uint8_t.
    "examples/adaptive_protocol.cpp": ["msg.data()"],
    # Word-at-a-time / SIMD checksum+cipher kernels: memcpy is the
    # alignment-safe unaligned load/store idiom, and the PCLMUL path casts
    # byte pointers to __m128i* for _mm_loadu_si128 (an unaligned-load
    # intrinsic, so the cast carries no alignment assumption).
    "src/dacapo/checksum.cc": ["memcpy(", "reinterpret_cast"],
}


def check_raw_bytes(path: Path, clean: str, findings: list[str]) -> None:
    r = rel(path)
    if r.startswith(("src/common/", "src/cdr/", "tests/")):
        return
    allow = RAW_BYTES_ALLOWLIST.get(r, [])
    for lineno, line in enumerate(clean.splitlines(), 1):
        m = RAW_BYTES.search(line)
        if m and not any(a in line for a in allow):
            findings.append(
                f"{r}:{lineno}: {m.group(1)} outside src/common/ and "
                f"src/cdr/ — raw byte reinterpretation is confined to the "
                f"buffer/CDR layers"
            )


def check_decoder_bounds(findings: list[str]) -> None:
    """Every decoder.h function body that reads data_ must bounds-check."""
    path = SRC / "cdr" / "decoder.h"
    if not path.exists():
        findings.append("src/cdr/decoder.h: missing (decoder bounds rule)")
        return
    clean = strip_comments_and_strings(path.read_text())
    # Split on function definitions at brace level of the class body; a
    # lightweight scan is enough for this file's uniform formatting.
    func_re = re.compile(r"^\s*(?:[\w:<>,&*\s]+?)\s(\w+)\s*\([^;]*\)\s*(?:const\s*)?{", re.M)
    lines = clean.splitlines()
    text = "\n".join(lines)
    for m in func_re.finditer(text):
        name = m.group(1)
        if name in ("if", "for", "while", "switch", "catch", "return"):
            continue
        # Extract the brace-balanced body.
        start = m.end() - 1
        depth, i = 0, start
        while i < len(text):
            if text[i] == "{":
                depth += 1
            elif text[i] == "}":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        body = text[start : i + 1]
        if "data_" not in body:
            continue
        if name in ("Decoder", "MakeBodyDecoder"):  # constructors/forwarders
            continue
        checked = (
            "remaining()" in body
            or "Underrun" in body
            or "CheckAvail" in body
            # Delegating primitives: every Get* helper is itself checked.
            or re.search(r"\bGet\w+\(", body)
            or "Align(" in body
        )
        if not checked:
            lineno = text.count("\n", 0, m.start()) + 1
            findings.append(
                f"src/cdr/decoder.h:{lineno}: {name}() touches data_ "
                f"without a remaining()/Underrun bounds check"
            )


def check_notify_under_lock(path: Path, clean: str, findings: list[str]) -> None:
    """Heuristic: a Notify call must follow a lock acquisition in-function."""
    if "Notify" not in clean:
        return
    lines = clean.splitlines()
    for lineno, line in enumerate(lines, 1):
        if not re.search(r"\.\s*Notify(One|All)\s*\(", line):
            continue
        # Scan backwards to the start of the enclosing function for a lock.
        held = False
        for back in range(lineno - 1, max(0, lineno - 60), -1):
            prev = lines[back - 1]
            if re.search(r"\b(MutexLock|WriterMutexLock|ReaderMutexLock)\b", prev):
                held = True
                break
            if re.search(r"\bCOOL_REQUIRES\s*\(", prev):
                held = True  # caller holds the lock by contract
                break
            if re.match(r"^\S.*\)\s*(const\s*)?({)?\s*$", prev) and "(" in prev:
                break  # hit a function signature at column 0
        if not held:
            findings.append(
                f"{rel(path)}:{lineno}: CondVar Notify without a visible "
                f"MutexLock in the enclosing function (notify-under-lock "
                f"rule, see DESIGN.md)"
            )


# Data-path directories where broadcast wakeups are banned outside
# teardown (rule 7). src/common/ and src/sim/ are exempt: their primitives
# (BlockingQueue, the simulated network) are multi-consumer by design.
DATA_PATH_DIRS = (
    "src/dacapo/",
    "src/transport/",
    "src/giop/",
    "src/orb/",
    "src/stream/",
)

def check_no_broadcast_on_data_path(
    path: Path, clean: str, findings: list[str]
) -> None:
    """Rule 7: NotifyAll in data-path dirs only inside shutdown functions."""
    r = rel(path)
    if not r.startswith(DATA_PATH_DIRS):
        return
    if "NotifyAll" not in clean:
        return
    lines = clean.splitlines()
    for lineno, line in enumerate(lines, 1):
        if not re.search(r"\.\s*NotifyAll\s*\(", line):
            continue
        # Scan backwards for the enclosing function definition; same
        # lightweight approach as check_notify_under_lock.
        in_shutdown = False
        for back in range(lineno - 1, 0, -1):
            prev = lines[back - 1]
            if "(" not in prev and re.search(r"\)\s*(?:const\s*)?{?\s*$", prev):
                # The tail of a wrapped signature: read it from its "(" line.
                first = back
                while first > 1 and "(" not in lines[first - 1]:
                    first -= 1
                prev = " ".join(lines[first - 1 : back])
            m = re.search(r"\b([~\w]+)\s*\([^;]*\)\s*(?:const\s*)?(?:{)?\s*$", prev)
            if m and not re.match(
                r"\s*(if|for|while|switch|catch|return)\b", prev
            ):
                name = m.group(1)
                in_shutdown = bool(
                    re.fullmatch(r"~\w+|Close|Stop|Shutdown|Drain\w*", name)
                )
                break
        if not in_shutdown:
            findings.append(
                f"{r}:{lineno}: NotifyAll on the data path outside a "
                f"shutdown function — single-consumer queues take "
                f"NotifyOne; broadcasts are reserved for "
                f"Close/Stop/Shutdown (rule 7, see DESIGN.md)"
            )


# Directories where a lock held across blocking channel I/O is banned
# (rule 8): the GIOP engines and the ORB above them must pipeline, so
# nothing may wait on the wire while holding a mutex.
NO_RECV_UNDER_LOCK_DIRS = ("src/giop/", "src/orb/")

RECV_CALL_RE = re.compile(r"(?:\.|->)\s*(Receive|Recv)\w*\s*\(")


def check_no_recv_under_lock(
    path: Path, clean: str, findings: list[str]
) -> None:
    """Rule 8: no Receive/Recv call below a still-live MutexLock."""
    r = rel(path)
    if not r.startswith(NO_RECV_UNDER_LOCK_DIRS):
        return
    lines = clean.splitlines()
    for lineno, line in enumerate(lines, 1):
        m = RECV_CALL_RE.search(line)
        if not m:
            continue
        # Scan backwards to the enclosing function definition, tracking
        # brace balance so a lock whose scope already closed (net `}` seen
        # on the way up) does not count as live at the receive point.
        closed = 0
        held = False
        for back in range(lineno - 1, 0, -1):
            prev = lines[back - 1]
            if back != lineno:
                closed += prev.count("}") - prev.count("{")
            if (
                re.search(r"\b(MutexLock|WriterMutexLock|ReaderMutexLock)\b", prev)
                and closed <= 0
            ):
                held = True
                break
            if re.search(r"\bCOOL_REQUIRES\s*\(", prev):
                held = True  # caller holds the lock by contract
                break
            if re.match(r"^\S.*\)\s*(const\s*)?({)?\s*$", prev) and "(" in prev:
                break  # hit a function signature at column 0
        if held:
            findings.append(
                f"{r}:{lineno}: blocking {m.group(1)}* call with a "
                f"MutexLock live in the enclosing function — release the "
                f"lock before waiting on the channel (rule 8, see "
                f"DESIGN.md)"
            )


INCLUDE_RE = re.compile(r'^\s*#include\s+"([^"]+)"', re.M)


def check_layering(findings: list[str]) -> None:
    for path in sorted(SRC.rglob("*.h")) + sorted(SRC.rglob("*.cc")):
        src_dir = path.relative_to(SRC).parts[0]
        if src_dir not in LAYER_RANK:
            continue
        # Comments-only strip: the include path IS a string literal, so the
        # combined stripper would blank it and silently disable this rule.
        text = strip_comments(path.read_text())
        for m in INCLUDE_RE.finditer(text):
            inc = m.group(1)
            inc_dir = inc.split("/", 1)[0]
            if inc_dir not in LAYER_RANK:
                continue
            if LAYER_RANK[inc_dir] > LAYER_RANK[src_dir]:
                lineno = text.count("\n", 0, m.start()) + 1
                findings.append(
                    f"{rel(path)}:{lineno}: layer violation — "
                    f"{src_dir}/ (rank {LAYER_RANK[src_dir]}) includes "
                    f"{inc} (rank {LAYER_RANK[inc_dir]}); the layer order "
                    f"is {', '.join(sorted(LAYER_RANK, key=LAYER_RANK.get))}"
                )


def check_new_delete(path: Path, clean: str, findings: list[str]) -> None:
    r = rel(path)
    # src/ plus bench/ and examples/ — tests keep latitude for fixtures.
    if r.startswith("tests/") or r in NEW_DELETE_EXEMPT_FILES:
        return
    allow = NEW_ALLOWLIST.get(r, [])
    for lineno, line in enumerate(clean.splitlines(), 1):
        if DELETE_RE.search(line) and "= delete" not in line:
            findings.append(
                f"{r}:{lineno}: bare delete — heap objects must be owned "
                f"by smart pointers from birth"
            )
        m = NEW_RE.search(line)
        if not m:
            continue
        if any(a in line for a in allow):
            continue
        # Placement-like or smart-pointer-wrapped news on the same line are
        # still flagged: make_unique/make_shared are the sanctioned forms.
        findings.append(
            f"{r}:{lineno}: bare new outside the factory allowlist — use "
            f"std::make_unique/std::make_shared, or extend the allowlist "
            f"in scripts/check_invariants.py with a justification"
        )


# --- rule 9: no begin()/end() buffer copies on the hot path ------------------
# The pooled invocation path moves ByteBuffers and passes spans end to end;
# a `Container(x.begin(), x.end())` construction or `.assign(x.begin(),
# x.end())` in src/giop or src/orb silently reintroduces the copy the pool
# exists to remove. Cold paths (connection setup, registration) are
# allowlisted with a justification.

BUFFER_COPY_DIRS = ("src/giop/", "src/orb/")

BUFFER_COPY_EXEMPT_FILES = {
    # The COOL wire protocol is the ablation baseline GIOP is measured
    # against (bench_message_protocols); it is deliberately copy-based and
    # not on the pooled invocation path.
    "src/giop/cool_protocol.cc",
}

BUFFER_COPY_ALLOWLIST = {
    # Servant registration: one copy of the object key at activation time.
    "src/orb/object_adapter.cc": ["name.begin(), name.end()"],
    # Deferred invocation: the one sanctioned copy that keeps the caller's
    # args alive for the async worker (see stub.cc InvokeAsync).
    "src/orb/stub.cc": ["args.begin(), args.end()"],
}

# Same identifier on both sides of `.begin(), X.end()`.
BUFFER_COPY_RE = re.compile(
    r"([A-Za-z_][\w.\->]*)\s*\.\s*begin\(\)\s*,\s*"
    r"([A-Za-z_][\w.\->]*)\s*\.\s*end\(\)"
)


def check_no_buffer_copies(path: Path, clean: str,
                           findings: list[str]) -> None:
    r = rel(path)
    if not r.startswith(BUFFER_COPY_DIRS) or r in BUFFER_COPY_EXEMPT_FILES:
        return
    allow = BUFFER_COPY_ALLOWLIST.get(r, [])
    for lineno, line in enumerate(clean.splitlines(), 1):
        m = BUFFER_COPY_RE.search(line)
        if not m or m.group(1) != m.group(2):
            continue
        # std::copy gathers into already-owned storage (stack headers,
        # preallocated frames) — that is the zero-copy idiom, not a fresh
        # buffer materialization.
        if "std::copy" in line:
            continue
        if any(a in line for a in allow):
            continue
        findings.append(
            f"{r}:{lineno}: begin()/end() buffer copy on the invocation "
            f"path — move the ByteBuffer, pass a span, or encode into a "
            f"BufferPool lease (rule 9, see DESIGN.md); cold paths may be "
            f"allowlisted in scripts/check_invariants.py"
        )


# --- rule 10: reactor-owned I/O in src/transport and src/giop ----------------
# The event-driven connection engine exists so that connections and
# bindings cost reactor registrations, not threads. New thread spawns and
# new blocking-receive call sites in these directories bypass it; each
# allowed site is the machinery itself.

REACTOR_DIRS = ("src/transport/", "src/giop/")

# Thread construction from a lambda: the cool::Thread wrapper as a
# temporary/member init (`Thread([`), a named local (`Thread t([`), or an
# in-place vector<Thread> emplace.
THREAD_SPAWN_RE = re.compile(
    r"\bThread\s*\(\s*\[|\bThread\s+\w+\s*\(\s*\[|\bemplace_back\s*\(\s*\[")

THREAD_SPAWN_ALLOWLIST = {
    "src/transport/reactor.cc": ["WorkerLoop"],  # the reactor's own workers
    "src/transport/epoll_poller.cc": ["Loop(stop)"],  # kernel-fd poll loop
    # Legacy input-callback utility (paper §5 callback API), pre-reactor.
    "src/transport/input_callback.cc": ["Run(st)"],
    "src/giop/dispatch_pool.cc": ["WorkerLoop()"],  # the shared pool itself
}

# Blocking receive call sites (TryReceiveMessage is the non-blocking
# reactor path and stays legal). `::`-qualified definitions are excluded
# by the lookbehind; declarations are skipped below.
BLOCKING_RECV_RE = re.compile(r"(?<![\w:])ReceiveMessage\s*\(")

BLOCKING_RECV_ALLOWLIST = {
    # The synchronous convenience API on the ComChannel base (SendReceive
    # and the legacy input-callback pump) — explicitly blocking by contract.
    "src/transport/com_channel.cc": ["ReceiveMessage(timeout)",
                                     "ReceiveMessage(seconds(30))"],
}


def check_reactor_owns_io(path: Path, clean: str,
                          findings: list[str]) -> None:
    r = rel(path)
    if not r.startswith(REACTOR_DIRS):
        return
    spawn_allow = THREAD_SPAWN_ALLOWLIST.get(r, [])
    recv_allow = BLOCKING_RECV_ALLOWLIST.get(r, [])
    for lineno, line in enumerate(clean.splitlines(), 1):
        if THREAD_SPAWN_RE.search(line):
            if not any(a in line for a in spawn_allow):
                findings.append(
                    f"{r}:{lineno}: thread spawn in reactor-owned territory "
                    f"— connections cost reactor registrations, not "
                    f"threads; dispatch through Reactor::Add or extend "
                    f"THREAD_SPAWN_ALLOWLIST with a justification (rule 10)"
                )
        m = BLOCKING_RECV_RE.search(line)
        if m:
            # Skip declarations (virtual/override/pure) — the rule targets
            # call sites, not the interface.
            if ("virtual" in line or "override" in line or "= 0" in line):
                continue
            if not any(a in line for a in recv_allow):
                findings.append(
                    f"{r}:{lineno}: blocking ReceiveMessage call site — "
                    f"use TryReceiveMessage behind a reactor registration, "
                    f"or extend BLOCKING_RECV_ALLOWLIST with a "
                    f"justification (rule 10)"
                )


# --- rule 11: no sleeps or raw condvars in reactor/dispatch territory --------
# Reactor callbacks and dispatch-pool upcalls run to completion on shared
# workers; a sleep there stalls every connection pinned to the worker. Raw
# condition variables additionally dodge the deadlock detector's hooks.
# (Rule 1 already bans std::condition_variable repo-wide outside common/;
# this rule makes the reactor dirs explicit and adds the sleep ban.)

SLEEP_RE = re.compile(
    r"std::this_thread::sleep_(for|until)\s*\(|"
    r"(?<!std::this_thread::)\bsleep_(for|until)\s*\(|"
    r"\bcondition_variable\b"
)


def check_no_sleep_in_reactor_dirs(path: Path, clean: str,
                                   findings: list[str]) -> None:
    r = rel(path)
    if not r.startswith(REACTOR_DIRS):
        return
    for lineno, line in enumerate(clean.splitlines(), 1):
        m = SLEEP_RE.search(line)
        if m:
            findings.append(
                f"{r}:{lineno}: {m.group(0).strip('(').strip()} in reactor-"
                f"owned territory — callbacks and upcalls run to completion "
                f"on shared workers; use CondVar::WaitUntil with a deadline "
                f"or restructure around the reactor (rule 11, DESIGN.md §11)"
            )


# --- rule 13: the data path drives modules in bursts --------------------------
# The burst engine (DESIGN.md §12) walks packet trains through
# Module::ProcessBurst; the only per-packet HandleData loop lives in the
# base-class shim (src/dacapo/module.h). A new HandleData call site in the
# chain drivers or the channel seam quietly reintroduces
# one-packet-at-a-time processing — one queue hop, wakeup and virtual call
# per packet — which is exactly the overhead PR 8 removed.

BURST_DRIVER_FILES = (
    "src/dacapo/runtime.cc",
    "src/dacapo/runtime.h",
    "src/dacapo/session.cc",
    "src/dacapo/session.h",
    "src/transport/dacapo_channel.cc",
)

HANDLE_DATA_CALL_RE = re.compile(r"(?:->|\.)\s*HandleData\s*\(")


def check_burst_data_path(path: Path, clean: str,
                          findings: list[str]) -> None:
    r = rel(path)
    if r not in BURST_DRIVER_FILES:
        return
    for lineno, line in enumerate(clean.splitlines(), 1):
        if HANDLE_DATA_CALL_RE.search(line):
            findings.append(
                f"{r}:{lineno}: per-packet HandleData call on the data path "
                f"— hand the train to Module::ProcessBurst instead; the only "
                f"per-packet loop is the base-class shim in module.h "
                f"(rule 13, DESIGN.md §12)"
            )


# --- rule 14: all dispatch work enters through the scheduler -----------------
# The band scheduler (common/qos_sched.h, DESIGN.md §13) is only fair if
# every job passes through its accounting, and it has one mount:
# DispatchPool::Submit. A stray BandScheduler on the data path, or a raw
# scheduler Enqueue outside the owning implementation, bypasses WFQ/DRR/
# CoDel and silently reintroduces first-grabbed-lock-wins.

SCHED_OWNER_FILES = {
    "src/common/qos_sched.h",
    "src/giop/dispatch_pool.h",
    "src/giop/dispatch_pool.cc",
}

SCHED_BYPASS_RE = re.compile(
    r"\bBandScheduler\s*<|\bsched_\s*\.\s*Enqueue\s*\("
)


def check_scheduler_owns_queues(path: Path, clean: str,
                                findings: list[str]) -> None:
    r = rel(path)
    if r in SCHED_OWNER_FILES or not r.startswith("src/"):
        return
    for lineno, line in enumerate(clean.splitlines(), 1):
        if SCHED_BYPASS_RE.search(line):
            findings.append(
                f"{r}:{lineno}: dispatch queue access outside the scheduler "
                f"— route the work through DispatchPool::Submit so "
                f"WFQ/DRR/CoDel see it (rule 14, DESIGN.md §13)"
            )


# --- rule 15: per-connection memory diet -------------------------------------
# The 100k-connection engine budgets a few hundred bytes per parked
# connection (DESIGN.md §14). A std::unordered_map or std::deque member in
# the connection-state headers eagerly allocates buckets/nodes per instance
# (libstdc++'s empty deque alone costs ~576 heap bytes), and a raw
# std::vector<std::uint8_t> receive buffer bypasses the BufferPool lease
# discipline. New members of these types in the files below need a
# PER_CONN_WAIVER comment (same line or the line above) explaining why the
# state is not per-connection or why the cost is accepted.

PER_CONN_FILES = (
    "src/orb/orb.h",
    "src/transport/tcp_channel.h",
    "src/transport/ipc_channel.h",
    "src/transport/dacapo_channel.h",
    "src/transport/com_channel.h",
)

PER_CONN_BANNED_RE = re.compile(
    r"\bstd::(unordered_map|deque)\s*<|\bstd::vector<std::uint8_t>\s+\w+_?\s*[;{=]"
)


def check_per_conn_memory(findings: list[str]) -> None:
    for r in PER_CONN_FILES:
        path = REPO / r
        if not path.exists():
            continue
        # Raw text, not the stripped view: the waiver lives in a comment.
        lines = path.read_text().splitlines()
        for lineno, line in enumerate(lines, 1):
            if line.lstrip().startswith(("//", "#")):
                continue
            if not PER_CONN_BANNED_RE.search(line):
                continue
            context = lines[max(0, lineno - 4):lineno]
            if any("PER_CONN_WAIVER" in c for c in context):
                continue
            findings.append(
                f"{r}:{lineno}: per-connection container member — empty "
                f"unordered_map/deque members eagerly allocate per instance "
                f"and raw byte vectors bypass the BufferPool lease; use "
                f"lazily-allocated pooled state, or add a PER_CONN_WAIVER "
                f"comment with a justification (rule 15, DESIGN.md §14)"
            )


# --- rule 12: lock-rank cross-check ------------------------------------------
# Three artifacts must agree: the LockRank enum (src/common/lock_rank.h),
# the machine-readable table (scripts/lock_order.yaml), and the Mutex /
# SharedMutex member declarations across src/. The runtime detector
# (COOL_DEADLOCK_DETECTOR=ON) enforces the same order dynamically; this
# pass catches drift at review time without a detector build.

LOCK_ORDER_YAML = REPO / "scripts" / "lock_order.yaml"
LOCK_RANK_H = SRC / "common" / "lock_rank.h"

# Files that define (rather than use) the lock machinery.
LOCK_RANK_EXEMPT = {
    "src/common/mutex.h",
    "src/common/lock_rank.h",
    "src/common/deadlock.h",
    "src/common/deadlock.cc",
    "src/common/graph_cycles.h",
    "src/common/graph_cycles.cc",
}

# A named mutex member declaration, optionally annotated and optionally
# rank-constructed, possibly spanning lines:
#   [mutable] Mutex name [COOL_ACQUIRED_*(...)] [{LockRank::kX, "ns::C::m"}];
MUTEX_DECL_RE = re.compile(
    r"\b(?:Mutex|SharedMutex)\s+(\w+)\s*"
    r"((?:COOL_ACQUIRED_(?:BEFORE|AFTER)\s*\([^)]*\)\s*)*)"
    r"(?:\{\s*LockRank::(k\w+)\s*,\s*\"([^\"]+)\"\s*\})?\s*;"
)

ENUM_RANK_RE = re.compile(r"\b(k\w+)\s*=\s*(-?\d+)")

YAML_RANK_RE = re.compile(r"^\s{2}(k\w+):\s*(-?\d+)\s*$")
YAML_ROW_RE = re.compile(
    r"^\s*-\s*\{\s*file:\s*(\S+?),\s*name:\s*\"([^\"]+)\",\s*"
    r"rank:\s*(k\w+)\s*\}\s*$"
)


def parse_lock_order_yaml() -> tuple[dict[str, int], list[tuple[str, str, str]]]:
    """Minimal parser for the constrained lock_order.yaml format."""
    ranks: dict[str, int] = {}
    rows: list[tuple[str, str, str]] = []
    section = None
    for line in LOCK_ORDER_YAML.read_text().splitlines():
        bare = line.split("#", 1)[0].rstrip()
        if not bare:
            continue
        if bare == "ranks:":
            section = "ranks"
            continue
        if bare == "mutexes:":
            section = "mutexes"
            continue
        if section == "ranks":
            m = YAML_RANK_RE.match(bare)
            if m:
                ranks[m.group(1)] = int(m.group(2))
        elif section == "mutexes":
            m = YAML_ROW_RE.match(bare)
            if m:
                rows.append((m.group(1), m.group(2), m.group(3)))
    return ranks, rows


def check_lock_ranks(findings: list[str]) -> None:
    if not LOCK_ORDER_YAML.exists():
        findings.append("scripts/lock_order.yaml: missing (rule 12)")
        return
    if not LOCK_RANK_H.exists():
        findings.append("src/common/lock_rank.h: missing (rule 12)")
        return

    # Enum <-> yaml rank tables must match exactly.
    enum_text = strip_comments(LOCK_RANK_H.read_text())
    enum_ranks = {m.group(1): int(m.group(2))
                  for m in ENUM_RANK_RE.finditer(enum_text)}
    yaml_ranks, yaml_rows = parse_lock_order_yaml()
    for name, value in sorted(enum_ranks.items()):
        if name not in yaml_ranks:
            findings.append(
                f"scripts/lock_order.yaml: rank {name} (= {value}) is in "
                f"lock_rank.h but missing from the yaml ranks table (rule 12)"
            )
        elif yaml_ranks[name] != value:
            findings.append(
                f"scripts/lock_order.yaml: rank {name} is {yaml_ranks[name]} "
                f"in the yaml but {value} in lock_rank.h (rule 12)"
            )
    for name in sorted(set(yaml_ranks) - set(enum_ranks)):
        findings.append(
            f"scripts/lock_order.yaml: rank {name} is not in the LockRank "
            f"enum (rule 12)"
        )

    # Collect every mutex member declaration in src/.
    declared: dict[str, tuple[str, str]] = {}  # qualified name -> (file, rank)
    by_file_member: dict[tuple[str, str], str] = {}  # (file, member) -> rank
    annotations: list[tuple[str, int, str, str, str, str]] = []
    for path in sorted(SRC.rglob("*.h")) + sorted(SRC.rglob("*.cc")):
        r = rel(path)
        if r in LOCK_RANK_EXEMPT:
            continue
        # Keep string literals: the lock *name* is one.
        text = strip_comments(path.read_text())
        for m in MUTEX_DECL_RE.finditer(text):
            member, anno, rank, qual = m.groups()
            lineno = text.count("\n", 0, m.start()) + 1
            if rank is None or qual is None:
                findings.append(
                    f"{r}:{lineno}: mutex {member} has no "
                    f"{{LockRank::kX, \"ns::Class::member\"}} initializer — "
                    f"every named lock in src/ carries an explicit rank "
                    f"(rule 12; pick from scripts/lock_order.yaml)"
                )
                continue
            if rank not in enum_ranks:
                findings.append(
                    f"{r}:{lineno}: mutex {member} uses unknown rank {rank} "
                    f"(rule 12)"
                )
                continue
            declared[qual] = (r, rank)
            by_file_member[(r, member)] = rank
            for am in re.finditer(
                r"COOL_ACQUIRED_(BEFORE|AFTER)\s*\(([^)]*)\)", anno or ""
            ):
                for arg in am.group(2).split(","):
                    arg = arg.strip()
                    if arg:
                        annotations.append(
                            (r, lineno, member, rank, am.group(1), arg)
                        )

    # Declarations <-> yaml rows must match one-for-one.
    yaml_by_name = {name: (file, rank) for file, name, rank in yaml_rows}
    for qual, (file, rank) in sorted(declared.items()):
        if qual not in yaml_by_name:
            findings.append(
                f"{file}: lock \"{qual}\" (rank {rank}) is declared in code "
                f"but missing from scripts/lock_order.yaml (rule 12)"
            )
            continue
        yfile, yrank = yaml_by_name[qual]
        if yrank != rank:
            findings.append(
                f"{file}: lock \"{qual}\" is rank {rank} in code but "
                f"{yrank} in scripts/lock_order.yaml (rule 12)"
            )
        if yfile != file:
            findings.append(
                f"scripts/lock_order.yaml: lock \"{qual}\" points at "
                f"{yfile} but is declared in {file} (rule 12)"
            )
    for name in sorted(set(yaml_by_name) - set(declared)):
        findings.append(
            f"scripts/lock_order.yaml: stale row \"{name}\" — no matching "
            f"declaration in src/ (rule 12)"
        )

    # COOL_ACQUIRED_BEFORE/AFTER must agree with the ranks. Resolve the
    # argument against the same file first, then a unique global basename.
    basename_ranks: dict[str, set[str]] = {}
    for (file, member), rank in by_file_member.items():
        basename_ranks.setdefault(member, set()).add(rank)
    for file, lineno, member, rank, direction, arg in annotations:
        arg_member = arg.split(".")[-1].split("->")[-1]
        other = by_file_member.get((file, arg_member))
        if other is None:
            # The annotated-against lock may live in another header (e.g. a
            # base class); only use the global basename if unambiguous.
            candidates = basename_ranks.get(arg_member, set())
            if len(candidates) != 1:
                continue
            other = next(iter(candidates))
        rv, ov = enum_ranks[rank], enum_ranks[other]
        ok = rv <= ov if direction == "AFTER" else rv >= ov
        if not ok:
            findings.append(
                f"{file}:{lineno}: {member} (rank {rank} = {rv}) is "
                f"COOL_ACQUIRED_{direction}({arg}) but {arg_member} has rank "
                f"{other} = {ov} — annotation contradicts the declared "
                f"hierarchy (rule 12, scripts/lock_order.yaml)"
            )


def main() -> int:
    findings: list[str] = []
    for path in code_files():
        clean = strip_comments_and_strings(path.read_text())
        check_raw_sync(path, clean, findings)
        check_raw_bytes(path, clean, findings)
        check_notify_under_lock(path, clean, findings)
        check_no_broadcast_on_data_path(path, clean, findings)
        check_no_recv_under_lock(path, clean, findings)
        check_new_delete(path, clean, findings)
        check_no_buffer_copies(path, clean, findings)
        check_reactor_owns_io(path, clean, findings)
        check_no_sleep_in_reactor_dirs(path, clean, findings)
        check_burst_data_path(path, clean, findings)
        check_scheduler_owns_queues(path, clean, findings)
    check_decoder_bounds(findings)
    check_layering(findings)
    check_lock_ranks(findings)
    check_per_conn_memory(findings)

    if findings:
        print(f"check_invariants: {len(findings)} violation(s)")
        for f in findings:
            print("  " + f)
        return 1
    print("check_invariants: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
