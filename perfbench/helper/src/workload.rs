//! The benchmark's workloads: how each input is generated from a seed,
//! what it is made of, and the oracle judgement of `dartmon`'s output.

use crate::probe::HashWrite;
use dart_baselines::EngineRegistry;
use dart_core::{run_monitor_slice, Backend, DartConfig, EngineStats, Leg, RttSample};
use dart_packet::{FlowKey, PacketMeta, SeqNum, SECOND};
use dart_sim::scenario::{campus, CampusConfig};
use dart_testkit::{run_oracle, OracleConfig};
use std::io::BufWriter;
use std::net::Ipv4Addr;
use std::path::Path;
use std::time::Instant;

/// The internal side `dartmon` assumes for pcap direction classification.
pub const INTERNAL: (Ipv4Addr, u8) = (Ipv4Addr::new(10, 0, 0, 0), 8);

/// Connection arrivals per second of the default campus mix (2000
/// connections over 30 s); every workload keeps this density and scales
/// the capture's length instead, so table occupancy matches the default.
const CONNS_PER_SEC: f64 = 2000.0 / 30.0;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    AnalyzeNative,
    AnalyzeUpload,
    AnalyzePcap,
    ServeFollow,
}

impl Workload {
    pub fn named(name: &str) -> Result<Workload, String> {
        [
            Workload::AnalyzeNative,
            Workload::AnalyzeUpload,
            Workload::AnalyzePcap,
            Workload::ServeFollow,
        ]
        .into_iter()
        .find(|w| w.name() == name)
        .ok_or_else(|| format!("unknown workload {name:?}"))
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::AnalyzeNative => "analyze-native",
            Workload::AnalyzeUpload => "analyze-upload",
            Workload::AnalyzePcap => "analyze-pcap",
            Workload::ServeFollow => "serve-follow",
        }
    }

    pub fn is_pcap(self) -> bool {
        self == Workload::AnalyzePcap
    }

    /// The file `dartmon` reads (the fifo's content for `serve-follow`).
    pub fn input_file(self) -> &'static str {
        if self.is_pcap() {
            "input.pcap"
        } else {
            "input.trace"
        }
    }

    /// The campus configuration of this workload; `connections` sets the
    /// size. The upload-heavy mix swaps request and response sizes on most
    /// connections and gives most of them a live server, which moves work
    /// from the RT fast path onto the PT, recirculation and the sink.
    pub fn campus(self, seed: u64, connections: usize) -> CampusConfig {
        let secs = (connections as f64 / CONNS_PER_SEC).ceil() as u64;
        let base = CampusConfig {
            connections,
            duration: secs.max(1) * SECOND,
            seed,
            ..CampusConfig::default()
        };
        match self {
            Workload::AnalyzeUpload => CampusConfig {
                upload_frac: 0.9,
                incomplete_frac: 0.2,
                ..base
            },
            _ => base,
        }
    }

    /// Packets in the analyze workloads' inputs: enough that one `dartmon
    /// analyze` command runs for roughly a second on a 2-core Xeon. Every
    /// seed gives exactly this many, so run-to-run differences are the
    /// host's and the mix's, not the input size's. `serve-follow` sizes its
    /// stream from the run plan instead.
    pub fn packets(self) -> Option<usize> {
        match self {
            Workload::AnalyzeNative => Some(5_000_000),
            Workload::AnalyzeUpload => Some(2_600_000),
            Workload::AnalyzePcap => Some(640_000),
            Workload::ServeFollow => None,
        }
    }

    /// A low estimate of packets per connection in this mix, so that the
    /// first generation usually yields enough packets.
    fn packets_per_connection(self) -> usize {
        match self {
            Workload::AnalyzeUpload => 330,
            _ => 270,
        }
    }
}

/// The engine configuration `dartmon analyze` and `dartmon serve` use by
/// default: exact backend, RT 2^20, PT 2^17 in one stage, one
/// recirculation, external leg.
pub fn engine_config() -> DartConfig {
    DartConfig::default()
        .with_leg(Leg::External)
        .with_rt(1 << 20)
        .with_pt(1 << 17, 1)
        .with_max_recirc(1)
        .with_backend(Backend::Exact)
}

/// Run the serial Dart engine over `packets`, the reference for every
/// output check made in-process.
pub fn serial_run(packets: &[PacketMeta]) -> Result<(Vec<RttSample>, EngineStats), String> {
    let mut built = EngineRegistry::standard().build("dart", &engine_config())?;
    Ok(run_monitor_slice(built.monitor.as_mut(), packets))
}

/// Share of packets that leave the RT fast path: PT stores,
/// displacements and recirculations, per packet.
pub fn slowpath_per_pkt(s: &EngineStats) -> f64 {
    (s.pt_stored + s.pt_displaced + s.recirc_issued) as f64 / s.packets.max(1) as f64
}

/// Nearest-rank percentile, the definition `dartmon analyze` prints.
pub fn nearest_rank(sorted: &[u64], p: f64) -> u64 {
    let n = sorted.len();
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

fn write_native(path: &Path, packets: &[PacketMeta]) -> Result<(u64, u64), String> {
    let file =
        std::fs::File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
    let mut w = dart_packet::trace::TraceWriter::new(HashWrite::new(BufWriter::new(file)))
        .map_err(|e| e.to_string())?;
    for p in packets {
        w.write(p).map_err(|e| e.to_string())?;
    }
    let out = w.finish().map_err(|e| e.to_string())?;
    settle(out)
}

fn write_pcap(path: &Path, packets: &[PacketMeta]) -> Result<(u64, u64), String> {
    let file =
        std::fs::File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
    let mut out = HashWrite::new(BufWriter::new(file));
    dart_sim::replay::dump_pcap(packets, &mut out).map_err(|e| e.to_string())?;
    settle(out)
}

/// Flush and sync a generated file, returning its checksum and length.
/// The sync keeps the kernel's writeback of hundreds of megabytes out of
/// the timed phase that follows generation.
fn settle(out: HashWrite<BufWriter<std::fs::File>>) -> Result<(u64, u64), String> {
    let file = out.inner.into_inner().map_err(|e| e.to_string())?;
    file.sync_all().map_err(|e| e.to_string())?;
    Ok((out.hash, out.bytes))
}

/// Generate the workload's inputs into `dir` and describe them.
///
/// Files: the input (`input.trace` or `input.pcap`), a header-only file of
/// the same format (`empty.*`, the set-up probe) and, for the pcap
/// workload, `same.trace` — the same packets in the native format.
/// The capture is cut to exactly `packets` packets (the workload's own
/// size unless given; `serve-follow` gives the length of its fifo stream).
pub fn generate(
    w: Workload,
    seed: u64,
    dir: &Path,
    packets: Option<usize>,
) -> Result<String, String> {
    let started = Instant::now();
    let n = packets
        .or(w.packets())
        .ok_or("serve-follow needs --packets")?;
    let mut conns = n / w.packets_per_connection() + 100;
    let mut trace = campus(w.campus(seed, conns)).packets;
    while trace.len() < n {
        conns += conns / 2;
        trace = campus(w.campus(seed, conns)).packets;
    }
    trace.truncate(n);
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let input = dir.join(w.input_file());
    let (hash, bytes) = if w.is_pcap() {
        write_native(&dir.join("same.trace"), &trace)?;
        write_pcap(&dir.join("empty.pcap"), &[])?;
        write_pcap(&input, &trace)?
    } else {
        write_native(&dir.join("empty.trace"), &[])?;
        write_native(&input, &trace)?
    };
    let gen_s = started.elapsed().as_secs_f64();
    let (samples, stats) = serial_run(&trace)?;
    let oracle = run_oracle(OracleConfig::default(), &trace);
    let mut valid: Vec<u64> = oracle.valid.iter().map(|s| s.rtt).collect();
    valid.sort_unstable();
    let (op50, op99) = if valid.is_empty() {
        (0, 0)
    } else {
        (nearest_rank(&valid, 50.0), nearest_rank(&valid, 99.0))
    };
    let n = trace.len().max(1) as f64;
    let slow = slowpath_per_pkt(&stats);
    Ok(format!(
        "{{\"workload\":\"{}\",\"seed\":{seed},\"connections\":{conns},\"file\":\"{}\",\"packets\":{},\"bytes\":{bytes},\"bytes_per_pkt\":{:.2},\"checksum\":\"{hash:016x}\",\"seq_tracked_share\":{:.4},\"slowpath_share\":{:.4},\"fast_path_share\":{:.4},\"sample_share\":{:.4},\"samples\":{},\"oracle_valid\":{},\"oracle_p50_ns\":{op50},\"oracle_p99_ns\":{op99},\"gen_s\":{gen_s:.3}}}",
        w.name(),
        input.display(),
        trace.len(),
        bytes as f64 / n,
        stats.seq_tracked as f64 / n,
        slow,
        1.0 - slow,
        stats.samples as f64 / n,
        samples.len(),
        oracle.valid.len(),
    ))
}

/// Parse the `dartmon analyze --csv` dump back into samples.
pub fn parse_csv(text: &str) -> Result<Vec<RttSample>, String> {
    let mut lines = text.lines();
    if lines.next() != Some("ts_ns,src,sport,dst,dport,eack,rtt_ns") {
        return Err("csv: unexpected header".to_string());
    }
    lines
        .enumerate()
        .map(|(i, line)| {
            let f: Vec<&str> = line.split(',').collect();
            let bad = || format!("csv line {}: {line:?}", i + 2);
            if f.len() != 7 {
                return Err(bad());
            }
            let ip = |s: &str| s.parse::<Ipv4Addr>().map_err(|_| bad());
            let num = |s: &str| s.parse::<u64>().map_err(|_| bad());
            let port = |s: &str| s.parse::<u16>().map_err(|_| bad());
            let flow = FlowKey::new(ip(f[1])?, port(f[2])?, ip(f[3])?, port(f[4])?);
            let eack = SeqNum(f[5].parse::<u32>().map_err(|_| bad())?);
            Ok(RttSample::new(flow, eack, num(f[6])?, num(f[0])?))
        })
        .collect()
}

/// Oracle verdict on a sample list, as JSON fields.
pub fn judge(packets: &[PacketMeta], samples: &[RttSample]) -> String {
    let card = run_oracle(OracleConfig::default(), packets).score(samples);
    format!(
        "\"packets\":{},\"samples\":{},\"exact\":{},\"ambiguous\":{},\"cross_anchored\":{},\"impossible\":{}",
        packets.len(),
        samples.len(),
        card.exact,
        card.ambiguous,
        card.cross_anchored,
        card.impossible
    )
}

/// `score`: judge a `dartmon analyze --csv` dump against the oracle run on
/// the packets of `input`.
pub fn score_csv(input: &str, csv: &str) -> Result<String, String> {
    let (packets, _) = dart_tools::io::load_file(input, INTERNAL)?;
    let text = std::fs::read_to_string(csv).map_err(|e| format!("read {csv}: {e}"))?;
    let samples = parse_csv(&text)?;
    Ok(format!("{{{}}}", judge(&packets, &samples)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Vec<PacketMeta> {
        campus(CampusConfig {
            connections: 200,
            duration: 3 * SECOND,
            upload_frac: 0.9,
            incomplete_frac: 0.2,
            seed: 11,
            ..CampusConfig::default()
        })
        .packets
    }

    fn csv_of(samples: &[RttSample]) -> String {
        let mut text = String::from("ts_ns,src,sport,dst,dport,eack,rtt_ns\n");
        for s in samples {
            text.push_str(&format!(
                "{},{},{},{},{},{},{}\n",
                s.ts,
                s.flow.src_ip,
                s.flow.src_port,
                s.flow.dst_ip,
                s.flow.dst_port,
                s.eack.raw(),
                s.rtt
            ));
        }
        text
    }

    fn impossible(verdict: &str) -> u64 {
        let key = "\"impossible\":";
        let at = verdict.find(key).expect("impossible field") + key.len();
        verdict[at..].parse().expect("count")
    }

    #[test]
    fn oracle_check_rejects_a_planted_fabricated_sample() {
        let packets = small();
        let (mut samples, _) = serial_run(&packets).expect("engine builds");
        assert!(!samples.is_empty());
        let parsed = parse_csv(&csv_of(&samples)).expect("csv parses");
        assert_eq!(impossible(&judge(&packets, &parsed)), 0);
        // Shift one sample's RTT so that no captured transmission of its
        // (flow, eack) anchors it: the oracle must call it fabricated.
        let mut planted = samples[samples.len() / 2];
        planted.rtt += 1;
        samples.push(planted);
        let parsed = parse_csv(&csv_of(&samples)).expect("csv parses");
        assert_eq!(impossible(&judge(&packets, &parsed)), 1);
    }

    #[test]
    fn csv_with_a_foreign_header_is_refused() {
        assert!(parse_csv("a,b\n1,2\n").is_err());
    }

    #[test]
    fn nearest_rank_matches_the_report_definition() {
        let v = [10, 20, 30, 40];
        assert_eq!(nearest_rank(&v, 50.0), 20);
        assert_eq!(nearest_rank(&v, 99.0), 40);
        assert_eq!(nearest_rank(&v, 0.0), 10);
    }
}
