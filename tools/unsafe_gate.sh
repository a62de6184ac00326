#!/bin/sh
# Unsafe-code gate (docs/PERF.md, "Set-up and memory").
#
# The workspace's one `unsafe` block is `st_simheap::zeroed_words`, which
# takes the heap's word slab and the stripe and traffic tables from zeroed
# pages. This gate fails unless:
#   - that block is the only `unsafe` block, fn, impl, trait or extern in
#     any non-comment line under crates/, src/, tests/ and examples/;
#   - the comment block directly above it opens with `// SAFETY:`;
#   - `#[allow(unsafe_code)]` appears once, on that function;
#   - st-simheap's root says `#![deny(unsafe_code)]`, and every other
#     library and binary crate root says `#![forbid(unsafe_code)]`.
#
# Usage: tools/unsafe_gate.sh   (from the repo root; exits nonzero on failure)

set -u

SLAB=crates/simheap/src/lib.rs
DIRS="crates src tests examples"
status=0
fail() {
    echo "unsafe-gate: $*" >&2
    status=1
}

hits=$(grep -rnE --include='*.rs' '\bunsafe[[:space:]]*(\{|fn\b|impl\b|trait\b|extern\b)' $DIRS \
    | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//')
line=$(echo "$hits" | sed -n "s|^$SLAB:\([0-9]*\):.*|\1|p")
if [ "$(echo "$hits" | grep -c .)" -ne 1 ] || [ -z "$line" ]; then
    fail "expected exactly one unsafe block, in $SLAB; found:"
    echo "$hits" | sed 's|^|  |' >&2
else
    # Walk up through the comment block directly above the unsafe line:
    # its first line must be the SAFETY comment.
    top=$(head -n $((line - 1)) "$SLAB" \
        | awk '{ if ($0 ~ /^[[:space:]]*\/\//) { if (first == "") first = $0 } else first = "" }
               END { print first }')
    case "$top" in
    *"// SAFETY:"*) ;;
    *) fail "$SLAB:$line: the comment directly above the unsafe block must open with // SAFETY:" ;;
    esac
    fn=$(head -n "$line" "$SLAB" | grep -E '^[[:space:]]*(pub )?fn ' | tail -n 1)
    case "$fn" in
    *"fn zeroed_words("*) ;;
    *) fail "$SLAB:$line: the unsafe block must be in zeroed_words, not in: $fn" ;;
    esac
fi

allows=$(grep -rn --include='*.rs' 'allow(unsafe_code)' $DIRS)
if [ "$(echo "$allows" | grep -c .)" -ne 1 ] \
    || ! grep -A1 'allow(unsafe_code)' "$SLAB" | grep -q 'fn zeroed_words('; then
    fail "#[allow(unsafe_code)] must appear once, on zeroed_words; found:"
    echo "$allows" | sed 's|^|  |' >&2
fi

for root in crates/*/src/lib.rs crates/*/src/main.rs src/lib.rs src/main.rs; do
    [ -f "$root" ] || continue
    if [ "$root" = "$SLAB" ]; then
        grep -qxF '#![deny(unsafe_code)]' "$root" || fail "$root must say #![deny(unsafe_code)]"
    else
        grep -qxF '#![forbid(unsafe_code)]' "$root" || fail "$root must say #![forbid(unsafe_code)]"
    fi
done

if [ "$status" -eq 0 ]; then
    echo "unsafe-gate: one unsafe block (zeroed_words, with its SAFETY comment); every other crate forbids unsafe"
fi
exit $status
