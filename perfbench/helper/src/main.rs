//! `perfbench`: the in-process half of the dartmon benchmark.
//!
//! `run.py` drives the `dartmon` binary from outside and calls this tool
//! for the work that needs the library:
//!
//! * `gen`   — build a workload's inputs from a seed and print their make-up;
//! * `score` — judge a `dartmon analyze --csv` dump with the oracle;
//! * `trace` — the traced per-layer run over the same inputs;
//! * `expo`  — print a real Prometheus exposition (for the parser test).
//!
//! Every subcommand prints one JSON object as its last stdout line.

mod layers;
mod probe;
mod workload;

use std::collections::BTreeMap;
use std::path::PathBuf;

#[global_allocator]
static ALLOC: probe::CountingAlloc = probe::CountingAlloc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(json) => println!("{json}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &[String]) -> Result<String, String> {
    let (cmd, flags) = parse(args)?;
    let get = |name: &str| {
        flags
            .get(name)
            .cloned()
            .ok_or_else(|| format!("{cmd} needs --{name}"))
    };
    let num = |name: &str| -> Result<u64, String> {
        get(name)?
            .parse()
            .map_err(|_| format!("--{name}: not a whole number"))
    };
    match cmd.as_str() {
        "gen" => {
            let w = workload::Workload::named(&get("workload")?)?;
            let packets = match flags.get("packets") {
                Some(_) => Some(num("packets")? as usize),
                None => None,
            };
            workload::generate(w, num("seed")?, &PathBuf::from(get("dir")?), packets)
        }
        "score" => workload::score_csv(&get("input")?, &get("csv")?),
        "trace" => layers::trace(
            workload::Workload::named(&get("workload")?)?,
            &PathBuf::from(get("dir")?),
            &get("dartmon")?,
            num("seconds")?,
        ),
        "expo" => Ok(layers::exposition_sample()),
        other => Err(format!("unknown command {other:?}")),
    }
}

fn parse(args: &[String]) -> Result<(String, BTreeMap<String, String>), String> {
    let cmd = args
        .first()
        .ok_or("usage: perfbench <gen|score|trace|expo> [--flag value]...")?;
    let mut flags = BTreeMap::new();
    let mut rest = args[1..].iter();
    while let Some(flag) = rest.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = rest
            .next()
            .ok_or_else(|| format!("--{name} needs a value"))?;
        flags.insert(name.to_string(), value.clone());
    }
    Ok((cmd.clone(), flags))
}
