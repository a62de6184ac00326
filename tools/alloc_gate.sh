#!/bin/sh
# Hot-path allocation gate (docs/PERF.md, "hot-loop pass").
#
# The sweep's inner loops — simhtm commit/validate, the machine step loop,
# and the metrics record paths — must not allocate strings per event. This
# gate fails if `format!`, `String::from`, or `.to_string()` appear in the
# non-test portion of a gated module, unless the line carries an explicit
# `alloc-gate: allow` marker (reserved for one-time registration paths,
# never per-event code).
#
# Usage: tools/alloc_gate.sh   (from the repo root; exits nonzero on hits)

set -u

GATED="
crates/simhtm/src/engine.rs
crates/machine/src/sched.rs
crates/obs/src/registry.rs
"

status=0
for f in $GATED; do
    if [ ! -f "$f" ]; then
        echo "alloc-gate: missing gated file $f" >&2
        status=1
        continue
    fi
    # Strip everything from the test module down: allocation in tests is
    # fine, and test modules sit at the bottom of each file by convention.
    hits=$(sed '/#\[cfg(test)\]/,$d' "$f" \
        | grep -nE 'format!|String::from|\.to_string\(' \
        | grep -v 'alloc-gate: allow')
    if [ -n "$hits" ]; then
        echo "alloc-gate: per-event allocation in hot-path module $f:" >&2
        echo "$hits" | sed "s|^|  $f:|" >&2
        status=1
    fi
done

if [ "$status" -eq 0 ]; then
    echo "alloc-gate: hot-path modules are allocation-clean"
fi
exit $status
