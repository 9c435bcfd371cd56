//! Measurement probes that live in the benchmark, not in the program: a
//! counting global allocator, a counting `Read` wrapper, a hashing
//! `Write` wrapper, and the span recorder.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::RefCell;
use std::io::{Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting every allocation and its size. The
/// counters are statistics that publish no other data, hence `Relaxed`.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters touch no
// memory the allocator hands out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; the caller upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// (allocations, bytes requested) since the process started.
pub fn alloc_counts() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

/// A `Read` that counts the `read` calls made on it.
pub struct CountingRead<R> {
    inner: R,
    reads: Arc<AtomicU64>,
}

impl<R> CountingRead<R> {
    pub fn new(inner: R) -> (CountingRead<R>, Arc<AtomicU64>) {
        let reads = Arc::new(AtomicU64::new(0));
        (
            CountingRead {
                inner,
                reads: Arc::clone(&reads),
            },
            reads,
        )
    }
}

impl<R: Read> Read for CountingRead<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.inner.read(buf)
    }
}

/// A `Write` that folds every byte into an FNV-1a 64 checksum.
pub struct HashWrite<W> {
    pub inner: W,
    pub hash: u64,
    pub bytes: u64,
}

impl<W> HashWrite<W> {
    pub fn new(inner: W) -> HashWrite<W> {
        HashWrite {
            inner,
            hash: 0xcbf2_9ce4_8422_2325,
            bytes: 0,
        }
    }
}

impl<W: Write> Write for HashWrite<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        for &b in &buf[..n] {
            self.hash = (self.hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        self.bytes += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// One recorded span: a call into a layer, timed from the benchmark.
#[derive(Clone, Debug)]
pub struct Span {
    pub run: u32,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
    /// Counts attached by the caller at the span's boundary (packets,
    /// reads, samples).
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn count(&self, key: &str) -> Option<u64> {
        self.counts.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
    }
}

struct Recorder {
    enabled: bool,
    epoch: Instant,
    run: u32,
    /// Spans already handed out by `take_spans`; ids count from the first
    /// span ever recorded, so ids and parents stay valid across takes.
    taken: usize,
    spans: Vec<Span>,
    open: Vec<(usize, u64, u64)>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        enabled: false,
        epoch: Instant::now(),
        run: 0,
        taken: 0,
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Turn recording on or off and set the run id later spans carry.
pub fn set_recording(enabled: bool, run: u32) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.enabled = enabled;
        r.run = run;
    });
}

/// Time `f` as a span named `name`, nested under the innermost open span.
/// With recording off this is a plain call. Returns the span id (`None`
/// when off) so the caller can attach counts.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, Option<usize>) {
    let id = REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.enabled {
            return None;
        }
        let id = r.taken + r.spans.len();
        let parent = r.open.last().map(|&(p, _, _)| p);
        let run = r.run;
        r.spans.push(Span {
            run,
            name,
            parent,
            start_ns: 0,
            end_ns: 0,
            allocs: 0,
            alloc_bytes: 0,
            counts: Vec::new(),
        });
        let (a, b) = alloc_counts();
        r.open.push((id, a, b));
        let start = r.epoch.elapsed().as_nanos() as u64;
        let at = id - r.taken;
        r.spans[at].start_ns = start;
        Some(id)
    });
    let out = f();
    if let Some(id) = id {
        REC.with(|r| {
            let mut r = r.borrow_mut();
            let end = r.epoch.elapsed().as_nanos() as u64;
            let (a, b) = alloc_counts();
            let (open_id, a0, b0) = r.open.pop().expect("span stack matches calls");
            debug_assert_eq!(open_id, id);
            let at = id - r.taken;
            let s = &mut r.spans[at];
            s.end_ns = end;
            s.allocs = a - a0;
            s.alloc_bytes = b - b0;
        });
    }
    (out, id)
}

/// Attach a count to a recorded span.
pub fn count(id: Option<usize>, key: &'static str, value: u64) {
    if let Some(id) = id {
        REC.with(|r| {
            let mut r = r.borrow_mut();
            let at = id - r.taken;
            r.spans[at].counts.push((key, value));
        });
    }
}

/// Take the spans recorded since the last take. Appending every take to
/// one vector, in order, makes a span's id its index there.
pub fn take_spans() -> Vec<Span> {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let spans = std::mem::take(&mut r.spans);
        r.taken += spans.len();
        spans
    })
}

/// Drop the spans recorded since the last take without giving them ids:
/// the next span recorded gets the id the first dropped one had.
pub fn discard_spans() {
    REC.with(|r| r.borrow_mut().spans.clear());
}

/// A span's self time: its duration minus the time its children cover.
/// Children of one span run one after another on this thread, so their
/// intervals do not overlap and their durations add.
pub fn self_time_ns(spans: &[Span], id: usize) -> u64 {
    let children: u64 = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(Span::dur_ns)
        .sum();
    spans[id].dur_ns().saturating_sub(children)
}

/// One span as a JSON object (the spans file holds one per line).
pub fn span_json(id: usize, s: &Span) -> String {
    let counts: Vec<String> = s
        .counts
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    format!(
        "{{\"run\":{},\"id\":{id},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"allocs\":{},\"alloc_bytes\":{},\"counts\":{{{}}}}}",
        s.run,
        s.parent.map_or("null".to_string(), |p| p.to_string()),
        s.name,
        s.start_ns,
        s.end_ns,
        s.allocs,
        s.alloc_bytes,
        counts.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        set_recording(true, 7);
        let ((), outer) = span("outer", || {
            let _ = span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        set_recording(false, 0);
        let spans = take_spans();
        let outer = outer.expect("recording on");
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(outer));
        assert_eq!(spans[1].run, 7);
        let own = self_time_ns(&spans, outer);
        assert!(own >= 2_000_000 && own < spans[outer].dur_ns() - 5_000_000 + 1);
    }

    #[test]
    fn ids_stay_global_across_takes() {
        set_recording(true, 0);
        let _ = span("a", || ());
        let first = take_spans();
        let ((), outer) = span("b", || {
            let _ = span("c", || ());
        });
        set_recording(false, 0);
        let mut all = first;
        all.extend(take_spans());
        let outer = outer.expect("recording on");
        assert_eq!(all[outer].name, "b");
        assert_eq!(all[outer + 1].parent, Some(outer));
    }

    #[test]
    fn counting_read_counts_calls() {
        let (mut r, reads) = CountingRead::new(&b"abcdef"[..]);
        let mut buf = [0u8; 4];
        while r.read(&mut buf).expect("slice read") > 0 {}
        assert_eq!(reads.load(Ordering::Relaxed), 3);
    }
}
