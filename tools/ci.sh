#!/usr/bin/env bash
# Tier-1 verification across these suites:
#   release  Release build + full ctest (what the recorded numbers assume)
#   asan     Debug + ASan/UBSan + full ctest (lifetime and UB bugs the
#            optimizer hides)
#   tsan     Debug + ThreadSanitizer, running the concurrency surfaces —
#            clock, engine, and the whole service plane (snapshot
#            publication, admission control, the stress test) — as direct
#            gtest binaries (build-ci-tsan/)
#   recovery Debug + ASan/UBSan, running the durability surfaces — the
#            fault-injection matrix, the crash-at-every-byte property
#            tests, the recovery mutation fuzz — plus a real kill -9 smoke
#            against ecrint_serve: write through the wire (two integrates
#            among the equivs), kill the process ungracefully, verify the
#            journal with ecrint_journal, restart, read the state back
#            (the outline equals the pre-crash one, and the metrics count
#            a superseded integrate), and check the SIGTERM drain path
#            exits 0.
#   replication
#            Debug + ASan/UBSan, running the replication surfaces — frame
#            codecs, journal tailer, follower state machine, response
#            cache — plus a live leader + two followers (one durable, one
#            diskless) over real sockets: snapshot bootstrap, identical
#            exports everywhere, NOT_LEADER redirects, kill -9 of the
#            leader mid-stream, and reconvergence after its restart.
#   bench    Release build of the recorded perf sweeps, run through
#            bench/run_benches.sh exactly as when recording (into scratch
#            files), then the median of five runs of BM_AssertChain/64
#            compared against the recorded number in BENCH_resemblance.json
#            and of BM_EngineIncrementalEdit/250 against BENCH_engine.json:
#            fail on >2x regression of either,
#            plus the mixed-throughput number in BENCH_service.json
#            sanity-checked against the recorded Release stamp.
#   protocol-compat
#            ASan build of the wire surfaces, then cross-version protocol
#            checks: the golden v1 transcript + fuzz/batch/cache suites, the
#            in-process v2 loadgen (perf_service --smoke, binary + batched
#            phases), and a live ecrint_serve under BOTH --fsync always and
#            --fsync batch spoken to by a text-v1 client (bash over
#            /dev/tcp) and a binary-v2 client (python3 socket) on the same
#            process, finishing with a drain and a v2 checkpoint
#            inspection.
#   net      ASan build of the epoll network plane (net_test: reactor,
#            incremental feed, buffer pool, timer wheel), then a live
#            ecrint_serve churned by a python3 client: the golden v1
#            transcript replayed over the socket byte-for-byte, 1000
#            sequential connect/ping/close cycles, 500 concurrent idle
#            connections — each with an fd-leak check against
#            /proc/<pid>/fd — and a SIGTERM drain with 100 connections
#            still parked.
#   chaos    ASan build of the fault-injection proxy and failover surfaces
#            (chaos_test plus the epoch/fuzz gtest suites), then a live
#            leader + two followers where each follower's replication
#            stream runs through an ecrint_chaos proxy driven by a
#            scripted schedule: 1-byte fragmentation from the start, a 3s
#            window of 5% block corruption, a 3s partition, and an RST —
#            convergence is re-checked through every phase. Then the
#            leader dies by kill -9, a follower is promoted (epoch 1),
#            the other follower is repointed with `demote`, the old
#            leader restarts, is fenced (NOT_LEADER with the new
#            leader's address), and finally rejoins as a follower of the
#            node that replaced it — ending with identical exports on
#            every node and clean SIGTERM drains all around.
#
# Usage: tools/ci.sh [--jobs N] [--keep] [--suite NAME ...]
#   --jobs N      parallelism for build and ctest (default: nproc)
#   --keep        leave the build trees (build-ci-<suite>/) in place for
#                 inspection instead of removing them on success
#   --suite NAME  run only NAME (release|asan|tsan|recovery|replication|
#                 bench|protocol-compat|net|chaos); repeatable. Default is
#                 release + asan; CI runs tsan, recovery, replication,
#                 bench, protocol-compat, net, and chaos as their own
#                 jobs.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
jobs="$(nproc)"
keep=0
suites=()

while [[ $# -gt 0 ]]; do
  case "$1" in
    --jobs)
      jobs="$2"
      shift 2
      ;;
    --keep)
      keep=1
      shift
      ;;
    --suite)
      suites+=("$2")
      shift 2
      ;;
    *)
      echo "unknown argument: $1" >&2
      exit 2
      ;;
  esac
done
if [[ ${#suites[@]} -eq 0 ]]; then
  suites=(release asan)
fi

configure_and_build() {
  local build_dir="$1"
  shift
  local targets=()
  while [[ $# -gt 0 && "$1" != "--" ]]; do
    targets+=("$1")
    shift
  done
  shift || true
  cmake -S "${repo_root}" -B "${build_dir}" "$@" >/dev/null
  if [[ ${#targets[@]} -gt 0 ]]; then
    cmake --build "${build_dir}" -j "${jobs}" --target "${targets[@]}"
  else
    cmake --build "${build_dir}" -j "${jobs}"
  fi
}

cleanup() {
  if [[ "${keep}" -eq 0 ]]; then
    rm -rf "$1"
  fi
}

run_ctest_suite() {
  local name="$1"
  shift
  local build_dir="${repo_root}/build-ci-${name}"
  echo "=== ${name}: configure + build" >&2
  configure_and_build "${build_dir}" -- "$@"
  echo "=== ${name}: ctest" >&2
  (cd "${build_dir}" && ctest --output-on-failure -j "${jobs}")
  cleanup "${build_dir}"
}

# TSan is incompatible with ASan and wants its own tree; the full ctest
# suite would multiply CI time ~15x, so this suite runs the binaries that
# exercise shared state across threads, directly and serially.
run_tsan_suite() {
  local build_dir="${repo_root}/build-ci-tsan"
  local tsan_flags="-fsanitize=thread -fno-omit-frame-pointer"
  echo "=== tsan: configure + build" >&2
  configure_and_build "${build_dir}" common_test engine_test service_test -- \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="${tsan_flags}" \
    -DCMAKE_EXE_LINKER_FLAGS="${tsan_flags}" \
    -DCMAKE_SHARED_LINKER_FLAGS="${tsan_flags}"
  echo "=== tsan: run" >&2
  # halt_on_error makes a single race fail the suite instead of scrolling by.
  TSAN_OPTIONS="halt_on_error=1" \
    "${build_dir}/tests/common_test" --gtest_filter='*Clock*:*Stopwatch*'
  TSAN_OPTIONS="halt_on_error=1" "${build_dir}/tests/engine_test"
  TSAN_OPTIONS="halt_on_error=1" "${build_dir}/tests/service_test"
  cleanup "${build_dir}"
}

# One scripted protocol exchange over /dev/tcp: sends every argument line,
# then echoes response lines until `frames` "."-terminated frames arrived.
smoke_request() {
  local port="$1" frames="$2"
  shift 2
  exec 3<>"/dev/tcp/127.0.0.1/${port}"
  printf '%s\n' "$@" >&3
  local seen=0 line
  while [[ "${seen}" -lt "${frames}" ]]; do
    if ! IFS= read -r -t 10 -u 3 line; then
      echo "recovery smoke: timed out waiting for response" >&2
      return 1
    fi
    line="${line%$'\r'}"
    echo "${line}"
    [[ "${line}" == "." ]] && seen=$((seen + 1))
  done
  exec 3<&- 3>&-
}

# Starts ecrint_serve with the given arguments writing to `log`, scrapes
# the ephemeral port into the global `smoke_port`, and the pid into
# `smoke_pid`.
start_server_with_args() {
  local log="$1"
  shift
  # stderr goes to the log too: a background server holding the suite's
  # stderr pipe would keep downstream readers alive after a failure.
  "$@" >"${log}" 2>&1 &
  smoke_pid=$!
  smoke_port=""
  for _ in $(seq 1 100); do
    smoke_port="$(sed -n 's/^listening on //p' "${log}" | head -n 1)"
    [[ -n "${smoke_port}" ]] && break
    sleep 0.1
  done
  if [[ -z "${smoke_port}" ]]; then
    echo "smoke: server never reported a port" >&2
    kill -9 "${smoke_pid}" 2>/dev/null || true
    return 1
  fi
}

start_smoke_server() {
  local serve="$1" data_dir="$2" log="$3"
  start_server_with_args "${log}" \
    "${serve}" --port 0 --data-dir "${data_dir}"
}

kill_recover_smoke() {
  local build_dir="$1"
  local serve="${build_dir}/tools/ecrint_serve"
  local journal_tool="${build_dir}/tools/ecrint_journal"
  local data_dir="${build_dir}/smoke-data"
  local log="${build_dir}/serve-smoke.log"
  rm -rf "${data_dir}"

  # Round 1: durable writes over the wire — define, then equivs with two
  # integrates between them, so recovery replays a superseded integrate and
  # a survivor that a later equiv leaves stale but served — then die
  # without warning.
  start_smoke_server "${serve}" "${data_dir}" "${log}"
  local write_out
  write_out="$(smoke_request "${smoke_port}" 7 \
    "open smoke" \
    "define schema s1 { entity Student { Name: char key; GPA: real; Addr: char; } } schema s2 { entity Pupil { Name: char key; GPA: real; Addr: char; } }" \
    "equiv s1.Student.Name s2.Pupil.Name" \
    "integrate" \
    "equiv s1.Student.GPA s2.Pupil.GPA" \
    "integrate" \
    "equiv s1.Student.Addr s2.Pupil.Addr")"
  if grep -q '^err ' <<<"${write_out}"; then
    echo "recovery smoke: a write failed:" >&2
    echo "${write_out}" >&2
    kill -9 "${smoke_pid}" 2>/dev/null || true
    return 1
  fi
  local outline_before
  outline_before="$(smoke_request "${smoke_port}" 2 "open smoke" "outline")"
  if ! grep -q 'schema integrated' <<<"${outline_before}"; then
    echo "recovery smoke: no integrated outline before the crash:" >&2
    echo "${outline_before}" >&2
    kill -9 "${smoke_pid}" 2>/dev/null || true
    return 1
  fi
  kill -9 "${smoke_pid}"
  wait "${smoke_pid}" 2>/dev/null || true

  # The journal survived the kill and scans clean.
  "${journal_tool}" verify "${data_dir}/smoke/journal.wal"

  # Round 2: restart, recover, read the schema back, drain on SIGTERM.
  : >"${log}"
  start_smoke_server "${serve}" "${data_dir}" "${log}"
  local export_out
  export_out="$(smoke_request "${smoke_port}" 2 "open smoke" "export")"
  if ! grep -q 'Student' <<<"${export_out}"; then
    echo "recovery smoke: recovered export is missing the schema:" >&2
    echo "${export_out}" >&2
    kill -9 "${smoke_pid}" 2>/dev/null || true
    return 1
  fi
  # Recovery built only the last integrate, and serves what the node
  # served before the crash.
  local outline_after
  outline_after="$(smoke_request "${smoke_port}" 2 "open smoke" "outline")"
  if [[ "${outline_after}" != "${outline_before}" ]]; then
    echo "recovery smoke: recovered outline differs from the pre-crash one:" >&2
    diff <(echo "${outline_before}") <(echo "${outline_after}") >&2 || true
    kill -9 "${smoke_pid}" 2>/dev/null || true
    return 1
  fi
  local superseded
  superseded="$(smoke_request "${smoke_port}" 2 "open smoke" "metrics" |
    sed -n 's/.*"journal.replay.integrates_superseded": \([0-9]*\).*/\1/p')"
  if [[ -z "${superseded}" || "${superseded}" -lt 1 ]]; then
    echo "recovery smoke: journal.replay.integrates_superseded is" \
      "'${superseded}', want >= 1" >&2
    kill -9 "${smoke_pid}" 2>/dev/null || true
    return 1
  fi
  kill -TERM "${smoke_pid}"
  local drain_status=0
  wait "${smoke_pid}" || drain_status=$?
  if [[ "${drain_status}" -ne 0 ]]; then
    echo "recovery smoke: SIGTERM drain exited ${drain_status}, want 0" >&2
    return 1
  fi
  if ! grep -q 'drained' "${log}"; then
    echo "recovery smoke: drain message missing from server log" >&2
    return 1
  fi
  echo "recovery smoke: kill -9 recovery (${superseded} superseded" \
    "integrate(s), outline unchanged) and SIGTERM drain OK" >&2
}

# Leader + two followers over real sockets (one durable, one diskless):
# snapshot bootstrap, WAL streaming, identical exports on every node,
# NOT_LEADER redirects carrying the leader's address, and reconvergence
# after kill -9 of the leader mid-stream — all under ASan/UBSan.
replication_smoke() {
  local build_dir="$1"
  repl_smoke_pids=()
  local serve="${build_dir}/tools/ecrint_serve"
  local leader_data="${build_dir}/repl-leader-data"
  local follower_data="${build_dir}/repl-follower-data"
  local leader_log="${build_dir}/repl-leader.log"
  local f1_log="${build_dir}/repl-follower1.log"
  local f2_log="${build_dir}/repl-follower2.log"
  rm -rf "${leader_data}" "${follower_data}"

  start_server_with_args "${leader_log}" \
    "${serve}" --port 0 --data-dir "${leader_data}" --role leader
  local leader_pid="${smoke_pid}" leader_port="${smoke_port}"
  repl_smoke_pids+=("${smoke_pid}")
  local seed_out
  seed_out="$(smoke_request "${leader_port}" 4 \
    "open repl" \
    "define schema s1 { entity Student { Name: char key; } }" \
    "define schema s2 { entity Pupil { Name: char key; } }" \
    "integrate")"
  if grep -q '^err ' <<<"${seed_out}"; then
    echo "replication smoke: leader seeding failed:" >&2
    echo "${seed_out}" >&2
    return 1
  fi

  start_server_with_args "${f1_log}" \
    "${serve}" --port 0 --role follower \
    --leader-addr "127.0.0.1:${leader_port}" --follow repl \
    --data-dir "${follower_data}"
  local f1_pid="${smoke_pid}" f1_port="${smoke_port}"
  repl_smoke_pids+=("${smoke_pid}")
  start_server_with_args "${f2_log}" \
    "${serve}" --port 0 --role follower \
    --leader-addr "127.0.0.1:${leader_port}" --follow repl
  local f2_pid="${smoke_pid}" f2_port="${smoke_port}"
  repl_smoke_pids+=("${smoke_pid}")

  # Both followers converge to a byte-identical export of the leader.
  # Only the export frame is compared: the `open` reply carries a
  # per-node session id, which legitimately differs across nodes.
  local leader_export follower_export port converged
  leader_export="$(smoke_request "${leader_port}" 2 "open repl" "export" |
    sed '1,/^\.$/d')"
  if ! grep -q 'Student' <<<"${leader_export}"; then
    echo "replication smoke: leader export is missing the schema:" >&2
    echo "${leader_export}" >&2
    return 1
  fi
  for port in "${f1_port}" "${f2_port}"; do
    converged=0
    for _ in $(seq 1 100); do
      follower_export="$(smoke_request "${port}" 2 "open repl" "export" \
        2>/dev/null | sed '1,/^\.$/d' || true)"
      if [[ "${follower_export}" == "${leader_export}" ]]; then
        converged=1
        break
      fi
      sleep 0.2
    done
    if [[ "${converged}" -ne 1 ]]; then
      echo "replication smoke: follower on port ${port} never converged" >&2
      echo "--- leader export:" >&2
      echo "${leader_export}" >&2
      echo "--- follower export:" >&2
      echo "${follower_export}" >&2
      return 1
    fi
  done

  # A write against a follower is refused with the leader's address.
  local not_leader_out
  not_leader_out="$(smoke_request "${f1_port}" 2 \
    "open repl" \
    "assert s1.Student 1 s2.Pupil")"
  if ! grep -q "^err NOT_LEADER leader=127.0.0.1:${leader_port}" \
      <<<"${not_leader_out}"; then
    echo "replication smoke: follower write was not redirected:" >&2
    echo "${not_leader_out}" >&2
    return 1
  fi

  # Kill the leader without warning mid-stream, restart it on the same
  # port, write more; the followers' clients reconnect and reconverge.
  kill -9 "${leader_pid}"
  wait "${leader_pid}" 2>/dev/null || true
  : >"${leader_log}"
  start_server_with_args "${leader_log}" \
    "${serve}" --port "${leader_port}" --data-dir "${leader_data}" \
    --role leader
  leader_pid="${smoke_pid}"
  repl_smoke_pids+=("${smoke_pid}")
  local write_out
  write_out="$(smoke_request "${leader_port}" 2 \
    "open repl" \
    "assert s1.Student 1 s2.Pupil")"
  if grep -q '^err ' <<<"${write_out}"; then
    echo "replication smoke: post-restart write failed:" >&2
    echo "${write_out}" >&2
    return 1
  fi
  leader_export="$(smoke_request "${leader_port}" 2 "open repl" "export" |
    sed '1,/^\.$/d')"
  if ! grep -q 's1\.Student 1 s2\.Pupil' <<<"${leader_export}"; then
    echo "replication smoke: post-restart export is missing the assertion:" >&2
    echo "${leader_export}" >&2
    return 1
  fi
  for port in "${f1_port}" "${f2_port}"; do
    converged=0
    for _ in $(seq 1 150); do
      follower_export="$(smoke_request "${port}" 2 "open repl" "export" \
        2>/dev/null | sed '1,/^\.$/d' || true)"
      if [[ "${follower_export}" == "${leader_export}" ]]; then
        converged=1
        break
      fi
      sleep 0.2
    done
    if [[ "${converged}" -ne 1 ]]; then
      echo "replication smoke: follower on port ${port} never" \
        "reconverged after leader restart" >&2
      return 1
    fi
  done

  # Every node drains cleanly on SIGTERM (followers join their clients).
  local pid drain_status
  for pid in "${f1_pid}" "${f2_pid}" "${leader_pid}"; do
    kill -TERM "${pid}"
    drain_status=0
    wait "${pid}" || drain_status=$?
    if [[ "${drain_status}" -ne 0 ]]; then
      echo "replication smoke: pid ${pid} drain exited" \
        "${drain_status}, want 0" >&2
      return 1
    fi
  done
  echo "replication smoke: bootstrap, NOT_LEADER redirect, and" \
    "leader kill -9 reconvergence OK" >&2
}

run_replication_suite() {
  local build_dir="${repo_root}/build-ci-replication"
  local san_flags="-fsanitize=address,undefined -fno-omit-frame-pointer"
  echo "=== replication: configure + build" >&2
  configure_and_build "${build_dir}" \
    service_test ecrint_serve ecrint_journal -- \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="${san_flags}" \
    -DCMAKE_EXE_LINKER_FLAGS="${san_flags}" \
    -DCMAKE_SHARED_LINKER_FLAGS="${san_flags}"
  echo "=== replication: frame, tailer, and state-machine suites" >&2
  "${build_dir}/tests/service_test" \
    --gtest_filter='Replication*:JournalTailer*:ResponseCache*'
  echo "=== replication: leader/follower smoke" >&2
  if ! replication_smoke "${build_dir}"; then
    # A failed check must not leave servers running (they would also hold
    # the suite's output pipe open).
    kill -9 "${repl_smoke_pids[@]}" 2>/dev/null || true
    return 1
  fi
  cleanup "${build_dir}"
}

run_recovery_suite() {
  local build_dir="${repo_root}/build-ci-recovery"
  local san_flags="-fsanitize=address,undefined -fno-omit-frame-pointer"
  echo "=== recovery: configure + build" >&2
  configure_and_build "${build_dir}" \
    common_test service_test ecrint_serve ecrint_journal -- \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="${san_flags}" \
    -DCMAKE_EXE_LINKER_FLAGS="${san_flags}" \
    -DCMAKE_SHARED_LINKER_FLAGS="${san_flags}"
  echo "=== recovery: fault injection + crash-at-every-byte + fuzz" >&2
  "${build_dir}/tests/common_test" \
    --gtest_filter='Checksum*:MemFs*:RealFs*:FaultInjectingFs*'
  "${build_dir}/tests/service_test" \
    --gtest_filter='Journal*:FsyncPolicy*:Checkpoint*:ProjectDirName*:Recovery*'
  echo "=== recovery: kill -9 smoke" >&2
  kill_recover_smoke "${build_dir}"
  cleanup "${build_dir}"
}

# Speaks binary protocol v2 to a live server from an independent
# implementation of the framing (python3): negotiates with the text verb
# `proto 2`, sends a single request, a pipelined pair of frames, and a
# batch frame covering writes + reads, and checks every response status.
# Catching a framing disagreement needs a second implementation — the C++
# round-trip tests share encoder and decoder, this client shares neither.
binary_client_exchange() {
  local port="$1" project="$2"
  python3 - "${port}" "${project}" <<'PY'
import socket
import sys

PORT, PROJECT = int(sys.argv[1]), sys.argv[2]
DDL = "schema s1 { entity Student { Name: char key; GPA: real; } } " \
      "schema s2 { entity Grad { Name: char key; GPA: real; } }"
VERB = {"ping": 1, "define": 5, "equiv": 6, "assert": 7, "integrate": 8,
        "export": 9, "rank": 10, "outline": 13}


def varint(n):
    out = bytearray()
    while True:
        byte = n & 0x7F
        n >>= 7
        if n:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def lpstr(s):
    raw = s.encode()
    return varint(len(raw)) + raw


def request_body(verb, args=()):
    body = bytes([0x01, VERB[verb]]) + varint(len(args))
    for arg in args:
        body += lpstr(arg)
    return body


def batch_body(items):
    body = bytes([0x02]) + varint(len(items))
    for verb, args in items:
        body += bytes([VERB[verb]]) + varint(len(args))
        for arg in args:
            body += lpstr(arg)
    return body


def frame(body):
    return varint(len(body)) + body


sock = socket.create_connection(("127.0.0.1", PORT), timeout=10)
reader = sock.makefile("rb")


def read_text_frame():
    lines = []
    while True:
        line = reader.readline()
        if not line:
            sys.exit("binary client: connection closed in text mode")
        line = line.rstrip(b"\r\n")
        if line == b".":
            return lines
        lines.append(line)


def read_uvarint():
    shift = value = 0
    while True:
        data = reader.read(1)
        if not data:
            sys.exit("binary client: connection closed mid-varint")
        byte = data[0]
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value
        shift += 7


def read_binary_frame():
    length = read_uvarint()
    body = reader.read(length)
    if len(body) != length:
        sys.exit("binary client: short frame body")
    return body


def parse_response(body):
    """Returns a list of (status, error_message_or_line_count)."""
    pos = 0

    def uv():
        nonlocal pos
        shift = value = 0
        while True:
            byte = body[pos]
            pos += 1
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return value
            shift += 7

    def lp():
        nonlocal pos
        n = uv()
        raw = body[pos:pos + n]
        pos += n
        return raw

    def one():
        nonlocal pos
        status = body[pos]
        pos += 1
        if status:
            uv()  # retry-after-ms
            return (status, lp().decode("utf-8", "replace"))
        count = uv()
        for _ in range(count):
            lp()
        return (0, count)

    kind = body[0]
    pos = 1
    if kind == 0x81:
        return [one()]
    if kind == 0x82:
        return [one() for _ in range(uv())]
    sys.exit(f"binary client: unexpected frame type {kind:#x}")


def expect_ok(results, context):
    for status, detail in results:
        if status:
            sys.exit(f"binary client: {context}: status {status}: {detail}")


# Text-mode negotiation on the same connection the binary frames will use.
sock.sendall(f"open {PROJECT}\n".encode())
lines = read_text_frame()
if not lines or not lines[0].startswith(b"ok"):
    sys.exit(f"binary client: open failed: {lines}")
sock.sendall(b"proto 2\n")
lines = read_text_frame()
if not lines or lines[0] != b"ok":
    sys.exit(f"binary client: proto 2 refused: {lines}")

# Single request.
sock.sendall(frame(request_body("ping")))
expect_ok(parse_response(read_binary_frame()), "ping")

# Two pipelined frames in one send: the server must answer both.
sock.sendall(frame(request_body("define", [DDL])) +
             frame(request_body("ping")))
expect_ok(parse_response(read_binary_frame()), "define")
expect_ok(parse_response(read_binary_frame()), "pipelined ping")

# One batch frame: write run + read run.
sock.sendall(frame(batch_body([
    ("equiv", ["s1.Student.Name", "s2.Grad.Name"]),
    ("equiv", ["s1.Student.GPA", "s2.Grad.GPA"]),
    ("assert", ["s1.Student", "1", "s2.Grad"]),
    ("integrate", []),
    ("outline", []),
    ("rank", ["s1", "s2", "zero"]),
    ("export", []),
])))
results = parse_response(read_binary_frame())
if len(results) != 7:
    sys.exit(f"binary client: batch returned {len(results)} items, want 7")
expect_ok(results, "batch")
if results[4][1] == 0:
    sys.exit("binary client: integrated outline came back empty")
print("binary client: v2 single, pipelined, and batch exchanges OK")
sock.close()
PY
}

run_protocol_compat_suite() {
  local build_dir="${repo_root}/build-ci-protocol-compat"
  local san_flags="-fsanitize=address,undefined -fno-omit-frame-pointer"
  echo "=== protocol-compat: configure + build (ASan)" >&2
  configure_and_build "${build_dir}" \
    service_test perf_service ecrint_serve ecrint_journal -- \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="${san_flags}" \
    -DCMAKE_EXE_LINKER_FLAGS="${san_flags}" \
    -DCMAKE_SHARED_LINKER_FLAGS="${san_flags}"

  echo "=== protocol-compat: golden v1 transcript + fuzz + batch suites" >&2
  "${build_dir}/tests/service_test" \
    --gtest_filter='GoldenTranscript*:ProtocolFuzz*:Protocol*:Batch*:BinaryBatch*:ResponseCache*:RouterCache*'

  echo "=== protocol-compat: in-process v2 loadgen (ASan)" >&2
  "${build_dir}/bench/perf_service" --smoke >/dev/null

  local policy
  for policy in always batch; do
    echo "=== protocol-compat: live server, --fsync ${policy}" >&2
    local data_dir="${build_dir}/compat-data-${policy}"
    local log="${build_dir}/serve-compat-${policy}.log"
    rm -rf "${data_dir}"
    "${build_dir}/tools/ecrint_serve" --port 0 --data-dir "${data_dir}" \
      --fsync "${policy}" >"${log}" &
    smoke_pid=$!
    smoke_port=""
    for _ in $(seq 1 100); do
      smoke_port="$(sed -n 's/^listening on //p' "${log}" | head -n 1)"
      [[ -n "${smoke_port}" ]] && break
      sleep 0.1
    done
    if [[ -z "${smoke_port}" ]]; then
      echo "protocol-compat: server never reported a port" >&2
      kill -9 "${smoke_pid}" 2>/dev/null || true
      return 1
    fi

    # A v1 text client against the v2-capable server: byte-for-byte the
    # same dialect the golden transcript pins.
    local text_out
    text_out="$(smoke_request "${smoke_port}" 3 \
      "open textv1" \
      "define schema t1 { entity Course { Code: char key; } }" \
      "export")"
    if grep -q '^err ' <<<"${text_out}"; then
      echo "protocol-compat: text v1 exchange failed:" >&2
      echo "${text_out}" >&2
      kill -9 "${smoke_pid}" 2>/dev/null || true
      return 1
    fi
    if ! grep -q 'Course' <<<"${text_out}"; then
      echo "protocol-compat: text v1 export missing the schema" >&2
      kill -9 "${smoke_pid}" 2>/dev/null || true
      return 1
    fi

    # A v2 binary client on the same server (fresh connection).
    if ! binary_client_exchange "${smoke_port}" "binv2"; then
      kill -9 "${smoke_pid}" 2>/dev/null || true
      return 1
    fi

    # Drain; the shutdown checkpoint must be a parseable v2 checkpoint.
    kill -TERM "${smoke_pid}"
    local drain_status=0
    wait "${smoke_pid}" || drain_status=$?
    if [[ "${drain_status}" -ne 0 ]]; then
      echo "protocol-compat: drain exited ${drain_status}, want 0" >&2
      return 1
    fi
    local checkpoint_out
    checkpoint_out="$("${build_dir}/tools/ecrint_journal" checkpoint \
      "${data_dir}/binv2/checkpoint.ecr")"
    if ! grep -q '^format v2$' <<<"${checkpoint_out}"; then
      echo "protocol-compat: drain checkpoint is not v2:" >&2
      echo "${checkpoint_out}" >&2
      return 1
    fi
  done
  echo "protocol-compat: text v1 + binary v2 against both fsync policies OK" >&2
  cleanup "${build_dir}"
}

# Connection churn against a live server from an independent client: the
# golden v1 transcript replayed over a real socket (extracted from the
# gtest source, so there is one source of truth for the expected bytes —
# this must be the FIRST connection so the session counter yields the
# golden's "s1"), sequential connect/request/close cycles and a concurrent
# idle herd with the server's /proc/<pid>/fd count checked back to
# baseline after each (the fd-leak gate), and finally a SIGTERM sent with
# 100 connections still parked: every parked socket must see EOF and the
# server must exit 0 ("drained" is checked by the caller).
net_churn_client() {
  local port="$1" pid="$2"
  python3 - "${port}" "${pid}" \
    "${repo_root}/tests/service/golden_transcript_test.cc" <<'PY'
import os
import re
import signal
import socket
import sys
import time

PORT, SRV_PID, GOLDEN_SRC = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3]
PING = b"ok\npong\n.\n"


def fd_count():
    return len(os.listdir(f"/proc/{SRV_PID}/fd"))


def connect():
    sock = socket.create_connection(("127.0.0.1", PORT), timeout=10)
    sock.settimeout(10)
    return sock


def read_exact(sock, want, context):
    buf = b""
    while len(buf) < want:
        data = sock.recv(65536)
        if not data:
            sys.exit(f"net churn: {context}: EOF after {len(buf)}/{want} "
                     "bytes")
        buf += data
    return buf


def ping(sock, context):
    sock.sendall(b"ping\n")
    got = read_exact(sock, len(PING), context)
    if got != PING:
        sys.exit(f"net churn: {context}: bad ping response {got!r}")


def drain_to_baseline(base, context):
    deadline = time.time() + 10
    while fd_count() > base and time.time() < deadline:
        time.sleep(0.05)
    now = fd_count()
    if now > base:
        sys.exit(f"net churn: fd leak after {context}: "
                 f"{base} baseline -> {now}")
    return now


# The golden v1 transcript over the socket, byte for byte: every request
# line in one pipelined write, the whole response stream compared against
# the transcript pinned in the gtest source.
with open(GOLDEN_SRC) as f:
    blocks = re.findall(r'R"GOLD\((.*?)\)GOLD"', f.read(), re.S)
if len(blocks) < 2:
    sys.exit("net churn: could not extract the golden script/transcript")
script, expected = blocks[:-1], blocks[-1].encode()
sock = connect()
sock.sendall(("\n".join(script) + "\n").encode())
got = read_exact(sock, len(expected), "golden transcript")
if got != expected:
    sys.exit("net churn: socket transcript diverged from the golden "
             f"(first diff at byte "
             f"{next(i for i in range(len(expected)) if got[i] != expected[i])})")
sock.close()
print("net churn: golden v1 transcript byte-identical over the socket")

time.sleep(0.3)  # let the server reap the golden connection
base = fd_count()

for i in range(1000):
    sock = connect()
    ping(sock, f"sequential cycle {i}")
    sock.close()
now = drain_to_baseline(base, "1000 sequential cycles")
print(f"net churn: 1000 connect/ping/close cycles, server fds "
      f"{base} -> {now}")

idle = []
for i in range(500):
    sock = connect()
    ping(sock, f"idle connection {i}")
    idle.append(sock)
with_idle = fd_count()
if with_idle < base + 500:
    sys.exit(f"net churn: expected >= {base + 500} server fds with 500 "
             f"idle connections, got {with_idle}")
for sock in idle:
    sock.close()
now = drain_to_baseline(base, "releasing 500 idle connections")
print(f"net churn: 500 concurrent idle held ({with_idle} fds), "
      f"released to {now}")

# Park 100 connections and drain the server out from under them: SIGTERM
# must close every parked socket (EOF or reset, nothing unsent).
parked = []
for i in range(100):
    sock = connect()
    ping(sock, f"parked connection {i}")
    parked.append(sock)
os.kill(SRV_PID, signal.SIGTERM)
for i, sock in enumerate(parked):
    try:
        leftover = sock.recv(65536)
    except socket.timeout:
        sys.exit(f"net churn: parked connection {i} never saw the drain")
    except OSError:
        leftover = b""  # reset by the draining server: also a close
    if leftover:
        sys.exit(f"net churn: parked connection {i} got unexpected bytes "
                 f"{leftover!r} during drain")
    sock.close()
print("net churn: SIGTERM drain closed all 100 parked connections")
PY
}

run_net_suite() {
  local build_dir="${repo_root}/build-ci-net"
  local san_flags="-fsanitize=address,undefined -fno-omit-frame-pointer"
  echo "=== net: configure + build (ASan)" >&2
  configure_and_build "${build_dir}" net_test service_test ecrint_serve -- \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="${san_flags}" \
    -DCMAKE_EXE_LINKER_FLAGS="${san_flags}" \
    -DCMAKE_SHARED_LINKER_FLAGS="${san_flags}"
  echo "=== net: reactor, feed, buffer-pool, and timer-wheel suites" >&2
  "${build_dir}/tests/net_test"
  echo "=== net: in-process golden transcript" >&2
  "${build_dir}/tests/service_test" --gtest_filter='GoldenTranscript*'
  echo "=== net: live server churn (ASan)" >&2
  local log="${build_dir}/serve-net.log"
  start_server_with_args "${log}" \
    "${build_dir}/tools/ecrint_serve" --port 0
  if ! net_churn_client "${smoke_port}" "${smoke_pid}"; then
    kill -9 "${smoke_pid}" 2>/dev/null || true
    return 1
  fi
  # The churn client sent the SIGTERM itself (it holds the parked
  # connections); here the exit status and the drain log are checked.
  local drain_status=0
  wait "${smoke_pid}" || drain_status=$?
  if [[ "${drain_status}" -ne 0 ]]; then
    echo "net: SIGTERM drain exited ${drain_status}, want 0" >&2
    return 1
  fi
  if ! grep -q 'drained' "${log}"; then
    echo "net: drain message missing from server log" >&2
    return 1
  fi
  echo "net: golden-over-socket, churn, fd-leak, and drain checks OK" >&2
  cleanup "${build_dir}"
}

# A replicated trio where every follower byte crosses an ecrint_chaos
# proxy running a scripted fault schedule, followed by a full failover:
# kill -9 the leader, `promote` a follower, `demote`-repoint the other,
# fence the restarted old leader, and fold it back in as a follower of
# its successor. Convergence (byte-identical exports) is the oracle after
# every phase; ASan watches every process.
chaos_smoke() {
  local build_dir="$1"
  chaos_smoke_pids=()
  local serve="${build_dir}/tools/ecrint_serve"
  local chaos="${build_dir}/tools/ecrint_chaos"
  local leader_data="${build_dir}/chaos-leader-data"
  local f1_data="${build_dir}/chaos-follower-data"
  local leader_log="${build_dir}/chaos-leader.log"
  local f1_log="${build_dir}/chaos-follower1.log"
  local f2_log="${build_dir}/chaos-follower2.log"
  local p1_log="${build_dir}/chaos-proxy1.log"
  local p2_log="${build_dir}/chaos-proxy2.log"
  rm -rf "${leader_data}" "${f1_data}"

  start_server_with_args "${leader_log}" \
    "${serve}" --port 0 --data-dir "${leader_data}" --role leader
  local leader_pid="${smoke_pid}" leader_port="${smoke_port}"
  chaos_smoke_pids+=("${smoke_pid}")
  local seed_out
  seed_out="$(smoke_request "${leader_port}" 4 \
    "open repl" \
    "define schema s1 { entity Student { Name: char key; } }" \
    "define schema s2 { entity Pupil { Name: char key; } }" \
    "integrate")"
  if grep -q '^err ' <<<"${seed_out}"; then
    echo "chaos smoke: leader seeding failed:" >&2
    echo "${seed_out}" >&2
    return 1
  fi

  # Scripted fault schedules (grammar: docs/FORMATS.md, "Chaos
  # schedules"). The smoke below paces itself against the same clock
  # (wait_until), so the writes land INSIDE the fault windows — a check
  # that converges before its fault even starts proves nothing. The
  # windows are generous because ASan stretches every phase.
  cat >"${build_dir}/chaos-sched1.txt" <<EOF
# durable follower's path: fragmentation throughout, a 5% corruption
# window escalating to a 100% slice (everything crossing 5s..8s is
# mangled, so the resubscribe-past-corruption path provably runs), a
# hard RST, then a partition that heals.
seed 7
set fragment 1
at 3000 set corrupt_pct 5
at 5000 set corrupt_pct 100
at 8000 set corrupt_pct 0
at 10000 rst
at 12000 set partition 1
at 15000 set partition 0
EOF
  cat >"${build_dir}/chaos-sched2.txt" <<EOF
# diskless follower's path: constant added latency and one mid-stream RST.
seed 11
set delay_ms 10
at 10000 rst
EOF

  # Seconds elapsed since the proxies (and their schedules) started;
  # wait_until paces the smoke's writes into specific schedule windows.
  local t0
  wait_until() {
    while (( SECONDS - t0 < $1 )); do sleep 1; done
  }

  start_server_with_args "${p1_log}" \
    "${chaos}" --upstream "127.0.0.1:${leader_port}" --listen 0 \
    --schedule "${build_dir}/chaos-sched1.txt"
  local p1_pid="${smoke_pid}" p1_port="${smoke_port}"
  chaos_smoke_pids+=("${smoke_pid}")
  t0="${SECONDS}"
  start_server_with_args "${p2_log}" \
    "${chaos}" --upstream "127.0.0.1:${leader_port}" --listen 0 \
    --schedule "${build_dir}/chaos-sched2.txt"
  local p2_pid="${smoke_pid}" p2_port="${smoke_port}"
  chaos_smoke_pids+=("${smoke_pid}")

  start_server_with_args "${f1_log}" \
    "${serve}" --port 0 --role follower \
    --leader-addr "127.0.0.1:${p1_port}" --follow repl \
    --data-dir "${f1_data}"
  local f1_pid="${smoke_pid}" f1_port="${smoke_port}"
  chaos_smoke_pids+=("${smoke_pid}")
  start_server_with_args "${f2_log}" \
    "${serve}" --port 0 --role follower \
    --leader-addr "127.0.0.1:${p2_port}" --follow repl
  local f2_pid="${smoke_pid}" f2_port="${smoke_port}"
  chaos_smoke_pids+=("${smoke_pid}")

  # Convergence oracle: a follower matches the leader's export byte for
  # byte (the `open` frame is skipped — session ids differ per node).
  converge_to() {
    local port="$1" want="$2" tries="$3" label="$4"
    local got
    for _ in $(seq 1 "${tries}"); do
      got="$(smoke_request "${port}" 2 "open repl" "export" \
        2>/dev/null | sed '1,/^\.$/d' || true)"
      if [[ "${got}" == "${want}" ]]; then
        return 0
      fi
      sleep 0.2
    done
    echo "chaos smoke: ${label} (port ${port}) never converged" >&2
    echo "--- want:" >&2
    echo "${want}" >&2
    echo "--- got:" >&2
    echo "${got}" >&2
    return 1
  }

  local leader_export
  leader_export="$(smoke_request "${leader_port}" 2 "open repl" "export" |
    sed '1,/^\.$/d')"
  converge_to "${f1_port}" "${leader_export}" 150 \
    "follower1 through fragmentation" || return 1
  converge_to "${f2_port}" "${leader_export}" 150 \
    "follower2 through delay" || return 1
  echo "chaos smoke: bootstrap converged through fragmentation + delay" >&2

  # A write INSIDE proxy1's 100% corruption slice (5s..8s): every copy
  # of the record crossing that wire gets a bit flipped, the follower
  # detects it and resubscribes, and convergence still lands once the
  # window closes.
  wait_until 5
  local write_out
  write_out="$(smoke_request "${leader_port}" 2 \
    "open repl" \
    "equiv s1.Student.Name s2.Pupil.Name")"
  if grep -q '^err ' <<<"${write_out}"; then
    echo "chaos smoke: write during the corruption window failed:" >&2
    echo "${write_out}" >&2
    return 1
  fi
  leader_export="$(smoke_request "${leader_port}" 2 "open repl" "export" |
    sed '1,/^\.$/d')"
  converge_to "${f1_port}" "${leader_export}" 250 \
    "follower1 through the corruption window" || return 1
  converge_to "${f2_port}" "${leader_export}" 250 \
    "follower2 during the corruption window" || return 1
  echo "chaos smoke: reconverged through the corruption window" >&2

  # A write INSIDE proxy1's partition (12s..15s, after both proxies RST
  # their live connections at 10s): blackholed until the heal, then the
  # followers catch up.
  wait_until 12
  write_out="$(smoke_request "${leader_port}" 2 \
    "open repl" \
    "assert s1.Student 1 s2.Pupil")"
  if grep -q '^err ' <<<"${write_out}"; then
    echo "chaos smoke: write during the partition failed:" >&2
    echo "${write_out}" >&2
    return 1
  fi
  leader_export="$(smoke_request "${leader_port}" 2 "open repl" "export" |
    sed '1,/^\.$/d')"
  converge_to "${f1_port}" "${leader_export}" 250 \
    "follower1 through RST + partition" || return 1
  converge_to "${f2_port}" "${leader_export}" 250 \
    "follower2 through RST" || return 1
  echo "chaos smoke: reconverged through RST and partition heal" >&2

  # Failover: the leader dies without warning, follower1 is promoted and
  # takes writes at epoch 1, follower2 is repointed at it by `demote`.
  kill -9 "${leader_pid}"
  wait "${leader_pid}" 2>/dev/null || true
  local promote_out
  promote_out="$(smoke_request "${f1_port}" 2 "open repl" "promote")"
  if ! grep -q '^leader epoch 1$' <<<"${promote_out}"; then
    echo "chaos smoke: promote did not answer epoch 1:" >&2
    echo "${promote_out}" >&2
    return 1
  fi
  write_out="$(smoke_request "${f1_port}" 2 \
    "open repl" \
    "define schema s3 { entity Alum { Name: char key; } }")"
  if grep -q '^err ' <<<"${write_out}"; then
    echo "chaos smoke: write on the promoted leader failed:" >&2
    echo "${write_out}" >&2
    return 1
  fi
  local demote_out
  demote_out="$(smoke_request "${f2_port}" 2 \
    "open repl" "demote 1 127.0.0.1:${f1_port}")"
  if ! grep -q "^following 127.0.0.1:${f1_port} at epoch 1$" \
      <<<"${demote_out}"; then
    echo "chaos smoke: demote on follower2 failed:" >&2
    echo "${demote_out}" >&2
    return 1
  fi
  local new_export
  new_export="$(smoke_request "${f1_port}" 2 "open repl" "export" |
    sed '1,/^\.$/d')"
  if ! grep -q 'Alum' <<<"${new_export}"; then
    echo "chaos smoke: promoted leader's export is missing the new write" >&2
    return 1
  fi
  converge_to "${f2_port}" "${new_export}" 150 \
    "follower2 after repointing at the promoted leader" || return 1
  local metrics_out
  metrics_out="$(smoke_request "${f1_port}" 2 "open repl" "metrics")"
  if ! grep -q '"repl.epoch": {"value": 1' <<<"${metrics_out}"; then
    echo "chaos smoke: promoted leader does not report repl.epoch 1:" >&2
    echo "${metrics_out}" >&2
    return 1
  fi
  echo "chaos smoke: kill -9 + promote + demote repoint converged" \
    "at epoch 1" >&2

  # The deposed leader comes back believing it leads (epoch 0 on disk),
  # is fenced by an explicit demote, refuses writes with the successor's
  # address, and finally rejoins as a follower and converges.
  : >"${leader_log}"
  start_server_with_args "${leader_log}" \
    "${serve}" --port "${leader_port}" --data-dir "${leader_data}" \
    --role leader
  local old_pid="${smoke_pid}"
  chaos_smoke_pids+=("${smoke_pid}")
  demote_out="$(smoke_request "${leader_port}" 2 \
    "open repl" "demote 1 127.0.0.1:${f1_port}")"
  if ! grep -q "^following 127.0.0.1:${f1_port} at epoch 1$" \
      <<<"${demote_out}"; then
    echo "chaos smoke: demote on the restarted old leader failed:" >&2
    echo "${demote_out}" >&2
    return 1
  fi
  write_out="$(smoke_request "${leader_port}" 2 \
    "open repl" \
    "define schema s4 { entity Ghost { Name: char key; } }")"
  if ! grep -q "^err NOT_LEADER leader=127.0.0.1:${f1_port}" \
      <<<"${write_out}"; then
    echo "chaos smoke: fenced old leader accepted (or misrouted) a write:" >&2
    echo "${write_out}" >&2
    return 1
  fi
  kill -TERM "${old_pid}"
  local drain_status=0
  wait "${old_pid}" || drain_status=$?
  if [[ "${drain_status}" -ne 0 ]]; then
    echo "chaos smoke: fenced old leader drain exited ${drain_status}" >&2
    return 1
  fi
  : >"${leader_log}"
  start_server_with_args "${leader_log}" \
    "${serve}" --port 0 --role follower \
    --leader-addr "127.0.0.1:${f1_port}" --follow repl \
    --data-dir "${leader_data}"
  old_pid="${smoke_pid}"
  chaos_smoke_pids+=("${smoke_pid}")
  converge_to "${smoke_port}" "${new_export}" 150 \
    "old leader rejoining as a follower" || return 1
  echo "chaos smoke: fenced old leader rejoined its successor and" \
    "converged" >&2

  # Every node and both proxies drain cleanly; the proxies print their
  # fault tallies on the way out.
  local pid
  for pid in "${f2_pid}" "${old_pid}" "${f1_pid}"; do
    kill -TERM "${pid}"
    drain_status=0
    wait "${pid}" || drain_status=$?
    if [[ "${drain_status}" -ne 0 ]]; then
      echo "chaos smoke: pid ${pid} drain exited ${drain_status}, want 0" >&2
      return 1
    fi
  done
  for pid in "${p1_pid}" "${p2_pid}"; do
    kill -TERM "${pid}"
    drain_status=0
    wait "${pid}" || drain_status=$?
    if [[ "${drain_status}" -ne 0 ]]; then
      echo "chaos smoke: proxy ${pid} exited ${drain_status}, want 0" >&2
      return 1
    fi
  done
  # The proxies' exit tallies prove the scheduled faults actually bit:
  # both executed their RST (forcing the visible reconnect), so neither
  # schedule expired against an idle wire.
  local log stats
  for log in "${p1_log}" "${p2_log}"; do
    stats="$(grep '^chaos: connections=' "${log}" || true)"
    if [[ -z "${stats}" ]]; then
      echo "chaos smoke: proxy stats line missing from ${log}" >&2
      return 1
    fi
    echo "${stats}" >&2
    if ! grep -Eq 'rsts=[1-9]' <<<"${stats}"; then
      echo "chaos smoke: scheduled RST never fired (${log}): ${stats}" >&2
      return 1
    fi
    if grep -q 'connections=1 ' <<<"${stats}"; then
      echo "chaos smoke: follower never reconnected through the proxy" \
        "after the RST (${log}): ${stats}" >&2
      return 1
    fi
  done
  # Proxy1's 100% slice had live traffic paced into it, so at least one
  # bit must have actually been flipped on that path.
  if ! grep -Eq '^chaos: .*bits_flipped=[1-9]' "${p1_log}"; then
    echo "chaos smoke: corruption window flipped no bits on proxy1" >&2
    return 1
  fi
  echo "chaos smoke: scripted faults, failover, fencing, and rejoin OK" >&2
}

run_chaos_suite() {
  local build_dir="${repo_root}/build-ci-chaos"
  local san_flags="-fsanitize=address,undefined -fno-omit-frame-pointer"
  echo "=== chaos: configure + build (ASan)" >&2
  configure_and_build "${build_dir}" \
    chaos_test service_test ecrint_serve ecrint_chaos -- \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="${san_flags}" \
    -DCMAKE_EXE_LINKER_FLAGS="${san_flags}" \
    -DCMAKE_SHARED_LINKER_FLAGS="${san_flags}"
  echo "=== chaos: proxy, failover, and frame-fuzz suites" >&2
  "${build_dir}/tests/chaos_test"
  "${build_dir}/tests/service_test" \
    --gtest_filter='ReplicationFailover*:ReplicationFuzz*:Replication*'
  echo "=== chaos: scripted-fault failover smoke" >&2
  if ! chaos_smoke "${build_dir}"; then
    kill -9 "${chaos_smoke_pids[@]}" 2>/dev/null || true
    return 1
  fi
  cleanup "${build_dir}"
}

# Fails when benchmark $3 of the fresh google-benchmark report $1 takes more
# than 2x the number recorded for it in $2 (a Release-stamped BENCH_*.json).
# Both sides are the `_median` aggregate of bench/run_benches.sh's five
# repetitions; a recording made before repetitions (one run, no aggregate)
# is compared by that run. The recorded number comes from a long Release
# run on the reference host; 2x absorbs host jitter while still catching a
# return to an old slow path.
gate_recorded_bench() {
  python3 - "$@" <<'PY'
import json
import os
import sys

fresh_path, recorded_path, NAME = sys.argv[1:4]
RECORDED = os.path.basename(recorded_path)
LIMIT = 2.0

def medians(doc):
    """Median per benchmark; a single-run recording gives its one run."""
    runs = {b["name"]: b["real_time"] for b in doc.get("benchmarks", [])
            if b.get("run_type") == "iteration"}
    runs.update({b["run_name"]: b["real_time"]
                 for b in doc.get("benchmarks", [])
                 if b.get("aggregate_name") == "median"})
    return runs

with open(fresh_path) as f:
    fresh_doc = json.load(f)
fresh = medians(fresh_doc)
with open(recorded_path) as f:
    recorded_doc = json.load(f)
recorded = medians(recorded_doc)

if not any(b.get("aggregate_name") == "median" and b.get("run_name") == NAME
           for b in fresh_doc["benchmarks"]):
    sys.exit(f"bench gate: {NAME} has no median in the fresh sweep; "
             "bench/run_benches.sh must run it with repetitions")
if NAME not in recorded:
    sys.exit(f"bench gate: {NAME} missing from {RECORDED}; "
             "re-record with bench/run_benches.sh from a Release build")
if not recorded_doc.get("context", {}).get("ecrint_release_build"):
    sys.exit(f"bench gate: {RECORDED} was not stamped as a Release "
             "build; re-record with bench/run_benches.sh")

ratio = fresh[NAME] / recorded[NAME]
print(f"bench gate: {NAME} fresh median={fresh[NAME]:.0f}ns "
      f"recorded={recorded[NAME]:.0f}ns ratio={ratio:.2f}x (limit {LIMIT}x)")
if ratio > LIMIT:
    sys.exit(f"bench gate: {NAME} regressed {ratio:.2f}x over the recorded "
             f"baseline (limit {LIMIT}x)")
PY
}

# Guards against silent perf regressions in a Release build: the closure
# worklist kernel (BM_AssertChain/64 against BENCH_resemblance.json; an
# accidental return to the O(N^3) recompute path is a ~30x slowdown) and the
# engine's incremental integrate (BM_EngineIncrementalEdit/250 against
# BENCH_engine.json; phase 4 going back to per-pair string lookups is
# several times slower), each gated at 2x the recorded number.
run_bench_suite() {
  local build_dir="${repo_root}/build-ci-bench"
  echo "=== bench: configure + build (Release)" >&2
  configure_and_build "${build_dir}" perf_resemblance perf_closure \
    perf_engine engine_trace -- -DCMAKE_BUILD_TYPE=Release
  # The fresh numbers come from the same invocation that records
  # BENCH_resemblance.json and BENCH_engine.json (full sweeps at the default
  # min time, written to scratch files): a filtered sweep of one benchmark
  # reads systematically slower than the full run it is compared against.
  echo "=== bench: run_benches.sh sweep" >&2
  local report="${build_dir}/bench_resemblance.json"
  local engine_report="${build_dir}/bench_engine.json"
  "${repo_root}/bench/run_benches.sh" --build-dir "${build_dir}" \
    --out "${report}" --engine-out "${engine_report}" >/dev/null
  gate_recorded_bench "${report}" "${repo_root}/BENCH_resemblance.json" \
    "BM_AssertChain/64"
  gate_recorded_bench "${engine_report}" "${repo_root}/BENCH_engine.json" \
    "BM_EngineIncrementalEdit/250"
  echo "=== bench: service mixed-throughput gate" >&2
  # The recorded service numbers must come from a Release build, and both
  # binary planes must clearly beat the plain text plane. The floor is a
  # relative multiple (host-portable) chosen well below the recorded gap:
  # the batch pipeline silently falling back to per-request framing, or the
  # batch read path losing the response cache again (the bug this gate was
  # born from: batch reads recomputing every rank/suggest showed up as
  # batched running at a FIFTH of the text plane), collapses the ratio
  # toward or below 1x. The text plane itself is cache-accelerated, so the
  # honest in-process multiple is ~2x, not the ~19x-over-old-baseline
  # headline — see docs/PERF.md.
  python3 - "${repo_root}/BENCH_service.json" <<'PY'
import json
import sys

MIN_MULTIPLE = 1.3  # recorded ratios are ~2.1x (batched) / ~2.7x (binary)

with open(sys.argv[1]) as f:
    doc = json.load(f)
if not doc.get("config", {}).get("release_build"):
    sys.exit("bench gate: BENCH_service.json was not recorded from a "
             "Release build; re-record with bench/run_benches.sh --service")
mixed = doc.get("mixed", {}).get("ops_per_sec")
binary = doc.get("mixed_binary", {}).get("ops_per_sec")
batched = doc.get("mixed_binary_batch", {}).get("ops_per_sec")
if not mixed or not binary or not batched:
    sys.exit("bench gate: BENCH_service.json is missing mixed / "
             "mixed_binary / mixed_binary_batch phases; re-record with a "
             "current build")
for name, value in [("mixed_binary", binary), ("mixed_binary_batch", batched)]:
    ratio = value / mixed
    print(f"bench gate: mixed={mixed:.0f} ops/s {name}={value:.0f} ops/s "
          f"ratio={ratio:.1f}x (floor {MIN_MULTIPLE}x)")
    if ratio < MIN_MULTIPLE:
        sys.exit(f"bench gate: {name} throughput is only {ratio:.1f}x "
                 f"the text plane (floor {MIN_MULTIPLE}x)")

# The network plane's recorded claims: a 10k-connection herd actually
# parked, active socket traffic within 10% of the unloaded baseline while
# the herd sits idle, and per-idle-connection memory at least 10x below
# the thread-per-connection shape the epoll reactor replaced.
cs = doc.get("connection_scaling")
if not cs:
    sys.exit("bench gate: BENCH_service.json is missing the "
             "connection_scaling phase; re-record with "
             "bench/run_benches.sh --service from a current build")
idle = cs.get("idle_connections", 0)
ratio = cs.get("active_ratio", 0)
reduction = cs.get("rss_reduction_x", 0)
print(f"bench gate: connection_scaling idle={idle} "
      f"active_ratio={ratio:.2f} (floor 0.9) "
      f"rss_reduction={reduction:.0f}x (floor 10x)")
if idle < 10000:
    sys.exit(f"bench gate: connection_scaling parked only {idle} idle "
             "connections (floor 10000)")
if ratio < 0.9:
    sys.exit(f"bench gate: active traffic dropped to {ratio:.2f}x of the "
             "unloaded baseline with the idle herd parked (floor 0.9)")
if reduction < 10:
    sys.exit(f"bench gate: per-idle-connection RSS is only {reduction:.1f}x "
             "below the thread-per-connection baseline (floor 10x)")
if not cs.get("server_exit_ok"):
    sys.exit("bench gate: the bench server did not drain cleanly under the "
             "10k-connection SIGTERM")
PY
  echo "=== bench: service loadgen smoke" >&2
  cmake --build "${build_dir}" -j "${jobs}" --target perf_service
  "${build_dir}/bench/perf_service" --smoke >/dev/null
  cleanup "${build_dir}"
}

for suite in "${suites[@]}"; do
  case "${suite}" in
    release)
      run_ctest_suite release -DCMAKE_BUILD_TYPE=Release
      ;;
    asan)
      # ASan's allocator and UBSan's checks both want symbols and no
      # optimizer surprises; -fno-omit-frame-pointer keeps reports readable.
      san_flags="-fsanitize=address,undefined -fno-omit-frame-pointer"
      run_ctest_suite asan \
        -DCMAKE_BUILD_TYPE=Debug \
        -DCMAKE_CXX_FLAGS="${san_flags}" \
        -DCMAKE_EXE_LINKER_FLAGS="${san_flags}" \
        -DCMAKE_SHARED_LINKER_FLAGS="${san_flags}"
      ;;
    tsan)
      run_tsan_suite
      ;;
    recovery)
      run_recovery_suite
      ;;
    replication)
      run_replication_suite
      ;;
    bench)
      run_bench_suite
      ;;
    protocol-compat)
      run_protocol_compat_suite
      ;;
    net)
      run_net_suite
      ;;
    chaos)
      run_chaos_suite
      ;;
    *)
      echo "unknown suite: ${suite}" \
        "(release|asan|tsan|recovery|replication|bench|protocol-compat|net|chaos)" >&2
      exit 2
      ;;
  esac
done

echo "=== verification passed (${suites[*]})" >&2
