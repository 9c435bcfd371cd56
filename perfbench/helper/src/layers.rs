//! The traced per-layer run: calls each layer's public functions over a
//! workload's generated input, in the order `dartmon` calls them, with a
//! span recorded from this file around every call.
//!
//! Nothing here feeds an end-to-end metric; those come from the untraced
//! `dartmon` runs in `run.py`.

use crate::probe::{self, span, CountingRead, Span};
use crate::workload::{engine_config, slowpath_per_pkt, Workload, INTERNAL};
use dart_analytics::RttDistribution;
use dart_baselines::EngineRegistry;
use dart_core::sharded::{ShardedConfig, ShardedMonitor};
use dart_core::{run_monitor, EngineStats, RttMonitor, RttSample, SampleSink, DEFAULT_BLOCK_PKTS};
use dart_packet::parse::PrefixClassifier;
use dart_packet::{PacketMeta, PacketSource, PcapSource, SliceSource};
use dart_telemetry::{EventLog, Histogram, HttpServer, MetricRegistry};
use dart_testkit::{Daemon, DaemonConfig};
use std::hint::black_box;
use std::io::{Read, Write};
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Repeats of the short calls inside one round, so each round yields a
/// median of its own.
const EXEC_REPS: usize = 5;
const SCRAPE_REPS: usize = 50;
/// Histogram observations per round: the workload's RTTs, cycled.
const OBSERVE_TARGET: usize = 2_000_000;

/// Forwards to the monitor and records `flush` as a child span of the
/// enclosing `run_monitor` span, so the match layer's self time excludes
/// it.
struct FlushSpan<'a>(&'a mut dyn RttMonitor);

impl RttMonitor for FlushSpan<'_> {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn describe(&self) -> String {
        self.0.describe()
    }
    fn on_packet(&mut self, pkt: &PacketMeta, sink: &mut dyn SampleSink) {
        self.0.on_packet(pkt, sink)
    }
    fn on_batch(&mut self, pkts: &[PacketMeta], sink: &mut dyn SampleSink) {
        self.0.on_batch(pkts, sink)
    }
    fn flush(&mut self, sink: &mut dyn SampleSink) {
        span("core.flush", || self.0.flush(sink));
    }
    fn stats(&self) -> EngineStats {
        self.0.stats()
    }
}

/// What one round of calls produced, for the checks.
struct Round {
    packets: usize,
    samples: usize,
    stats: EngineStats,
    daemon_packets: u64,
    daemon_samples: u64,
    exposition_bytes: usize,
}

fn http_get(addr: std::net::SocketAddr, path: &str) -> Result<(), String> {
    let mut s = std::net::TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    write!(
        s,
        "GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
    )
    .map_err(|e| format!("send: {e}"))?;
    let mut raw = Vec::new();
    s.read_to_end(&mut raw).map_err(|e| format!("recv: {e}"))?;
    if !raw.starts_with(b"HTTP/1.1 200") {
        return Err(format!("GET {path}: not 200"));
    }
    Ok(())
}

/// One pass over every layer. With recording off it is the untraced
/// reference for the tracing overhead.
fn round(w: Workload, dir: &Path, dartmon: &str) -> Result<Round, String> {
    let input = dir.join(w.input_file());
    let input_str = input.to_str().ok_or("input path is not UTF-8")?;

    // tools: process start to exit of the binary, no work in between.
    for _ in 0..EXEC_REPS {
        let (status, _) = span("tools.exec", || {
            std::process::Command::new(dartmon)
                .arg("help")
                .stdout(std::process::Stdio::null())
                .status()
        });
        match status {
            Ok(s) if s.success() => {}
            other => return Err(format!("dartmon help: {other:?}")),
        }
    }

    // tools: whole-file load as `dartmon analyze` does it.
    let (loaded, id) = span("tools.load_file", || {
        dart_tools::io::load_file(input_str, INTERNAL)
    });
    let (packets, _) = loaded?;
    let n = packets.len();
    probe::count(id, "packets", n as u64);

    // packet: decode from bytes already in memory.
    let bytes = std::fs::read(&input).map_err(|e| format!("read {}: {e}", input.display()))?;
    let (decoded, id) = span("packet.decode", || {
        if w.is_pcap() {
            let classifier = PrefixClassifier::new([INTERNAL]);
            dart_sim::replay::load_pcap(&bytes[..], &classifier).map(|(p, _)| p)
        } else {
            dart_sim::replay::load_native(&bytes[..])
        }
    });
    drop(bytes);
    let decoded = decoded.map_err(|e| e.to_string())?;
    probe::count(id, "packets", decoded.len() as u64);
    if decoded.len() != n {
        return Err(format!(
            "decode yielded {} packets, load_file {n}",
            decoded.len()
        ));
    }
    drop(decoded);

    // packet: the streaming source `dartmon serve` reads, over the file
    // itself (unbuffered, as the follow tail is), one ingest block at a time.
    let file = std::fs::File::open(&input).map_err(|e| e.to_string())?;
    let (reader, reads) = CountingRead::new(file);
    let (streamed, id) = span("packet.source", || -> Result<u64, String> {
        let mut buf = Vec::with_capacity(DEFAULT_BLOCK_PKTS);
        let mut total = 0u64;
        let mut source: Box<dyn PacketSource> = if w.is_pcap() {
            Box::new(
                PcapSource::new(reader, PrefixClassifier::new([INTERNAL]))
                    .map_err(|e| e.to_string())?,
            )
        } else {
            Box::new(dart_packet::trace::TraceReader::new(reader).map_err(|e| e.to_string())?)
        };
        loop {
            let got = source
                .next_chunk(&mut buf, DEFAULT_BLOCK_PKTS)
                .map_err(|e| e.to_string())?;
            if got == 0 {
                break Ok(total);
            }
            total += got as u64;
            black_box(&buf);
        }
    });
    let streamed = streamed?;
    probe::count(id, "packets", streamed);
    probe::count(id, "reads", reads.load(Ordering::Relaxed));
    if streamed != n as u64 {
        return Err(format!("source yielded {streamed} packets, load_file {n}"));
    }

    // core: engine construction with table allocation, then the match.
    let cfg = engine_config();
    let registry = EngineRegistry::standard();
    let metrics = MetricRegistry::new();
    let (built, _) = span("core.build", || {
        registry.build_instrumented("dart", &cfg, &metrics)
    });
    let mut built = built?;
    let mut samples: Vec<RttSample> = Vec::new();
    let (stats, id) = span("core.run_monitor", || {
        run_monitor(
            &mut FlushSpan(built.monitor.as_mut()),
            SliceSource::new(&packets),
            &mut samples,
        )
    });
    let stats = stats.map_err(|e| e.to_string())?;
    probe::count(id, "packets", n as u64);
    probe::count(id, "samples", samples.len() as u64);
    drop(built);

    // analytics: the report `dartmon analyze` prints.
    let (_, id) = span("analytics.report", || {
        let mut dist = RttDistribution::from_samples(samples.iter().map(|s| s.rtt));
        for p in [50.0, 90.0, 95.0, 99.0] {
            black_box(dist.percentile(p));
        }
    });
    probe::count(id, "samples", samples.len() as u64);

    // telemetry: histogram observe over the workload's RTTs.
    let rtts: Vec<u64> = samples.iter().map(|s| s.rtt).collect();
    if !rtts.is_empty() {
        let hist = Histogram::new();
        let reps = OBSERVE_TARGET.div_ceil(rtts.len());
        let (_, id) = span("telemetry.observe", || {
            for _ in 0..reps {
                for &v in &rtts {
                    hist.observe(black_box(v));
                }
            }
        });
        probe::count(id, "observations", (reps * rtts.len()) as u64);
    }

    // sharded: the supervised runtime with one shard, fed as the daemon
    // feeds it.
    let sharded_cfg = ShardedConfig::new(cfg, 1);
    let shard_metrics = MetricRegistry::new();
    let mut sharded = ShardedMonitor::with_telemetry(sharded_cfg, &shard_metrics);
    let mut sink: Vec<RttSample> = Vec::new();
    let (_, id) = span("sharded.on_batch", || {
        for block in packets.chunks(DEFAULT_BLOCK_PKTS) {
            sharded.on_batch(block, &mut sink);
        }
    });
    probe::count(id, "packets", n as u64);
    span("sharded.flush", || sharded.flush(&mut sink));
    let sharded_samples = sink.len();
    drop(sharded);

    // daemon: start (bind, spawn, allocate) and the ingest loop.
    let daemon_cfg = DaemonConfig {
        sharded: ShardedConfig::new(cfg, 1),
        rotate_every: Duration::from_secs(900),
        bind: "127.0.0.1:0".to_string(),
        ..DaemonConfig::default()
    };
    let (daemon, _) = span("daemon.start", || Daemon::start(daemon_cfg));
    let daemon = daemon.map_err(|e| format!("daemon start: {e}"))?;
    let daemon_registry = daemon.registry().clone();
    let (report, id) = span("daemon.run", || daemon.run(&mut SliceSource::new(&packets)));
    let report = report.map_err(|e| e.to_string())?;
    probe::count(id, "packets", n as u64);

    // telemetry: exposition of the daemon's registry, direct and over HTTP.
    let mut exposition_bytes = 0;
    for _ in 0..SCRAPE_REPS {
        let (text, _) = span("telemetry.scrape", || daemon_registry.scrape().prometheus());
        exposition_bytes = text.len();
    }
    let server = HttpServer::serve(
        "127.0.0.1:0",
        daemon_registry,
        EventLog::new(16),
        Arc::new(|| "{}".to_string()),
    )
    .map_err(|e| format!("bind: {e}"))?;
    for _ in 0..SCRAPE_REPS {
        let (got, _) = span("telemetry.http_get", || http_get(server.addr(), "/metrics"));
        got?;
    }
    server.stop();

    if sharded_samples != samples.len() {
        return Err(format!(
            "sharded run emitted {sharded_samples} samples, serial {}",
            samples.len()
        ));
    }
    Ok(Round {
        packets: n,
        samples: samples.len(),
        stats,
        daemon_packets: report.packets,
        daemon_samples: report.stats.samples,
        exposition_bytes,
    })
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Per-layer metrics of one round, from its spans.
fn round_metrics(spans: &[Span], base: usize, r: &Round) -> Vec<(&'static str, f64)> {
    let named = |name: &str| -> Vec<(usize, &Span)> {
        spans
            .iter()
            .enumerate()
            .skip(base)
            .filter(|(_, s)| s.name == name)
            .collect()
    };
    let first = |name: &str| named(name).first().map(|&(i, s)| (i, s.clone()));
    let dur = |name: &str| first(name).map_or(f64::NAN, |(_, s)| s.dur_ns() as f64);
    let med = |name: &str| median(named(name).iter().map(|(_, s)| s.dur_ns() as f64).collect());
    let per = |name: &str, key: &str| {
        first(name).map_or(f64::NAN, |(_, s)| s.count(key).unwrap_or(0).max(1) as f64)
    };
    let n = r.packets.max(1) as f64;
    let st = &r.stats;
    let (_, load) = first("tools.load_file").expect("load span");
    let run_id = first("core.run_monitor").expect("run_monitor span").0;
    let (_, feed) = first("sharded.on_batch").expect("feed span");
    let (_, source) = first("packet.source").expect("source span");
    vec![
        ("tools.exec_ms", med("tools.exec") / 1e6),
        ("tools.load_ns_per_pkt", load.dur_ns() as f64 / n),
        ("packet.decode_ns_per_pkt", dur("packet.decode") / n),
        ("packet.alloc_bytes_per_pkt", load.alloc_bytes as f64 / n),
        ("packet.source_ns_per_pkt", source.dur_ns() as f64 / n),
        (
            "packet.source_reads_per_pkt",
            source.count("reads").unwrap_or(0) as f64 / n,
        ),
        ("core.build_ms", dur("core.build") / 1e6),
        (
            "core.match_ns_per_pkt",
            probe::self_time_ns(spans, run_id) as f64 / n,
        ),
        ("core.flush_ms", dur("core.flush") / 1e6),
        ("core.slowpath_per_pkt", slowpath_per_pkt(st)),
        ("core.recirc_per_pkt", st.recirc_per_packet()),
        (
            "core.samples_per_kpkt",
            st.samples as f64 * 1000.0 / st.packets.max(1) as f64,
        ),
        ("sharded.feed_ns_per_pkt", feed.dur_ns() as f64 / n),
        ("sharded.drain_ms", dur("sharded.flush") / 1e6),
        ("sharded.allocs_per_kpkt", feed.allocs as f64 * 1000.0 / n),
        ("daemon.start_ms", dur("daemon.start") / 1e6),
        ("daemon.ns_per_pkt", dur("daemon.run") / n),
        (
            "telemetry.observe_ns",
            dur("telemetry.observe") / per("telemetry.observe", "observations"),
        ),
        ("telemetry.scrape_us", med("telemetry.scrape") / 1e3),
        ("telemetry.exposition_bytes", r.exposition_bytes as f64),
        ("telemetry.http_get_us", med("telemetry.http_get") / 1e3),
        (
            "analytics.report_ns_per_sample",
            dur("analytics.report") / r.samples.max(1) as f64,
        ),
    ]
}

/// Spans recorded to price one span, see [`span_cost_ns`].
const CALIBRATION_SPANS: u32 = 200_000;

/// What recording one span costs the caller: the mean time of
/// `CALIBRATION_SPANS` spans around an empty call, each with one count
/// attached. The spans are discarded.
fn span_cost_ns() -> f64 {
    probe::set_recording(true, u32::MAX);
    let t = Instant::now();
    for _ in 0..CALIBRATION_SPANS {
        let ((), id) = span("calibration", || ());
        probe::count(id, "packets", 1);
    }
    let ns = t.elapsed().as_nanos() as f64 / f64::from(CALIBRATION_SPANS);
    probe::set_recording(false, 0);
    probe::discard_spans();
    ns
}

/// One round of calls, traced or not, and its wall time in ns.
fn timed_round(
    w: Workload,
    dir: &Path,
    dartmon: &str,
    traced: Option<u32>,
) -> Result<(Round, f64), String> {
    if let Some(run) = traced {
        probe::set_recording(true, run);
    }
    let t = Instant::now();
    let r = round(w, dir, dartmon);
    let ns = t.elapsed().as_nanos() as f64;
    probe::set_recording(false, 0);
    Ok((r?, ns))
}

/// `trace`: an untraced warm-up round, then pairs of rounds, one traced
/// and one untraced, for about `seconds`. The pairs alternate which round
/// runs first, so an order effect cancels rather than posing as overhead.
/// Prints the median of each per-layer metric over the traced rounds and
/// the tracing overhead two ways: the median over pairs of traced minus
/// untraced round time, with its smallest and largest pair, and the
/// recorder's own cost, spans per round times the cost of one span.
pub fn trace(w: Workload, dir: &Path, dartmon: &str, seconds: u64) -> Result<String, String> {
    let span_ns = span_cost_ns();
    timed_round(w, dir, dartmon, None)?;
    let budget = Duration::from_secs(seconds.max(1));
    let started = Instant::now();
    let mut per_round: Vec<Vec<(&'static str, f64)>> = Vec::new();
    let mut traced_ns: Vec<f64> = Vec::new();
    let mut untraced_ns: Vec<f64> = Vec::new();
    let mut checks = 0u64;
    let mut spans: Vec<Span> = Vec::new();
    let mut run = 0u32;
    while run == 0 || started.elapsed() < budget {
        let untraced_first = run % 2 == 1;
        if untraced_first {
            untraced_ns.push(timed_round(w, dir, dartmon, None)?.1);
        }
        let (r, ns) = timed_round(w, dir, dartmon, Some(run))?;
        traced_ns.push(ns);
        if !untraced_first {
            untraced_ns.push(timed_round(w, dir, dartmon, None)?.1);
        }
        // Conservation, and one answer from every way the program runs
        // the engine.
        if r.stats.packets + r.stats.monitor_miss != r.packets as u64 {
            return Err("serial engine lost packets".to_string());
        }
        if r.daemon_packets != r.packets as u64 {
            return Err(format!(
                "daemon counted {} of {} packets",
                r.daemon_packets, r.packets
            ));
        }
        if r.daemon_samples != r.samples as u64 {
            return Err(format!(
                "daemon emitted {} samples, serial engine {}",
                r.daemon_samples, r.samples
            ));
        }
        checks += 3;
        let base = spans.len();
        spans.extend(probe::take_spans());
        per_round.push(round_metrics(&spans, base, &r));
        run += 1;
    }
    let pair_diffs: Vec<f64> = traced_ns
        .iter()
        .zip(&untraced_ns)
        .map(|(t, u)| t - u)
        .collect();
    let diff_min = pair_diffs.iter().copied().fold(f64::INFINITY, f64::min);
    let diff_max = pair_diffs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let spans_per_round = spans.len() as f64 / f64::from(run);

    let path = dir.join("spans.jsonl");
    let mut text = String::new();
    for (i, s) in spans.iter().enumerate() {
        text.push_str(&probe::span_json(i, s));
        text.push('\n');
    }
    std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;

    let names: Vec<&'static str> = per_round[0].iter().map(|(k, _)| *k).collect();
    let metrics: Vec<String> = names
        .iter()
        .enumerate()
        .map(|(i, k)| {
            let v = median(per_round.iter().map(|r| r[i].1).collect());
            format!("\"{k}\":{v}")
        })
        .collect();
    Ok(format!(
        "{{\"rounds\":{run},\"calls\":{},\"checks\":{checks},\"spans_file\":\"{}\",\"traced_round_s\":{:.4},\"untraced_round_s\":{:.4},\"overhead_s\":{:.4},\"overhead_min_s\":{:.4},\"overhead_max_s\":{:.4},\"span_cost_ns\":{span_ns:.1},\"spans_per_round\":{spans_per_round},\"recorder_overhead_s\":{:.9},\"metrics\":{{{}}}}}",
        spans.len(),
        path.display(),
        median(traced_ns) / 1e9,
        median(untraced_ns) / 1e9,
        median(pair_diffs) / 1e9,
        diff_min / 1e9,
        diff_max / 1e9,
        span_ns * spans_per_round / 1e9,
        metrics.join(",")
    ))
}

/// A real exposition: the serial engine's telemetry series after a short
/// campus replay, as `GET /metrics` renders it.
pub fn exposition_sample() -> String {
    let packets = dart_sim::scenario::campus(dart_sim::scenario::CampusConfig {
        connections: 100,
        duration: 2 * dart_packet::SECOND,
        ..Default::default()
    })
    .packets;
    let metrics = MetricRegistry::new();
    let mut built = EngineRegistry::standard()
        .build_instrumented("dart", &engine_config(), &metrics)
        .expect("dart is registered");
    let mut samples: Vec<RttSample> = Vec::new();
    let stats = run_monitor(
        built.monitor.as_mut(),
        SliceSource::new(&packets),
        &mut samples,
    )
    .expect("slice sources are infallible");
    let mut rtts: Vec<u64> = samples.iter().map(|s| s.rtt).collect();
    rtts.sort_unstable();
    let text = metrics.scrape().prometheus();
    let p50 = crate::workload::nearest_rank(&rtts, 50.0);
    let p99 = crate::workload::nearest_rank(&rtts, 99.0);
    format!(
        "{{\"samples\":{},\"p50_ns\":{p50},\"p99_ns\":{p99},\"exposition\":{}}}",
        stats.samples,
        json_string(&text)
    )
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
