//! A block carved fresh from the bump pointer is handed out without being
//! written: the slab's pages are zero until a program touches them, so
//! registering a StackTrack thread context (16,456 words, a 32,768-word
//! block) costs no resident memory for the words it never uses. This test
//! is its own binary so no other test's allocations move the process's
//! `VmRSS`.

#![cfg(target_os = "linux")]

use st_simheap::{Heap, HeapConfig};

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
fn carving_fresh_blocks_leaves_their_pages_untouched() {
    let heap = Heap::new(HeapConfig {
        capacity_words: 1 << 22,
    });
    let before = rss_kib();
    let blocks: Vec<_> = (0..64)
        .map(|_| heap.alloc_untimed(16_456).expect("room for 64 contexts"))
        .collect();
    let grown_kib = rss_kib().saturating_sub(before);
    // 64 blocks of 32,768 words are 16 MiB of heap; the block table keeps
    // one byte per carved word (2 MiB).
    assert!(
        grown_kib < 4 * 1024,
        "carving 64 context-sized blocks grew VmRSS by {grown_kib} KiB"
    );
    assert!(blocks.iter().all(|&b| heap.peek(b, 16_455) == 0));
}
