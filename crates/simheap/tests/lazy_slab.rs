//! The heap's word slab comes from zeroed pages: building a heap costs no
//! resident memory until a run touches its words. This test is its own
//! binary so no other test's allocations move the process's `VmRSS`.

#![cfg(target_os = "linux")]

use st_simheap::{Addr, Heap, HeapConfig};

/// This process's resident set (`VmRSS`), in KiB.
fn rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .expect("read /proc/self/status")
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("a VmRSS line in kB")
}

#[test]
fn a_heap_is_resident_only_where_it_is_touched() {
    let capacity_words = 1 << 26; // 512 MiB of words.
    let before = rss_kib();
    let heap = Heap::new(HeapConfig { capacity_words });
    let (first, last) = (Addr::from_index(1), Addr::from_index(capacity_words - 1));
    heap.poke(first, 0, 7);
    heap.poke(last, 0, 9);
    assert_eq!((heap.peek(first, 0), heap.peek(last, 0)), (7, 9));
    assert_eq!(heap.peek(Addr::from_index(capacity_words / 2), 0), 0);
    let grown_kib = rss_kib().saturating_sub(before);
    assert!(
        grown_kib < 32 * 1024,
        "a 512 MiB heap touched at both ends grew VmRSS by {grown_kib} KiB"
    );
}
