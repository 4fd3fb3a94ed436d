//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload, prints a readable summary and, as the last line, a
//! JSON object with `correct`, `attempted`, `failed` and the metrics
//! (end-to-end ones untraced, per-layer ones traced). Exits 1 when any
//! check failed and 2 on bad arguments.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, Ordering};

use obs::alloc::CountingAlloc;
use perfbench::report::{correct, result_line, summary};
use perfbench::workload::{run, Config, Workload};

/// Whether allocations go through the counting allocator; set once, at
/// the start of a traced run, so untraced runs pay nothing for counting.
static COUNTING: AtomicBool = AtomicBool::new(false);

struct GatedAlloc;

// SAFETY: every call is passed unchanged to `System` or to
// `CountingAlloc`, which itself passes it to `System`; both therefore
// allocate and free from the same underlying allocator, so a block may be
// freed through either path whatever the flag said when it was allocated.
unsafe impl GlobalAlloc for GatedAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            CountingAlloc.alloc(layout)
        } else {
            System.alloc(layout)
        }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if COUNTING.load(Ordering::Relaxed) {
            CountingAlloc.dealloc(ptr, layout)
        } else {
            System.dealloc(ptr, layout)
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            CountingAlloc.realloc(ptr, layout, new_size)
        } else {
            System.realloc(ptr, layout, new_size)
        }
    }
}

#[global_allocator]
static GLOBAL: GatedAlloc = GatedAlloc;

fn parse_args() -> Result<Config, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; expected one of {names:?}")
                })?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let mut cfg = Config::new(
        workload,
        seed.ok_or("--seed is required")?,
        seconds.ok_or("--seconds is required")?,
        trace.unwrap_or(false),
    );
    if cfg.trace {
        cfg.span_log =
            Some(format!("perfbench/out/{}-seed{}.spans.jsonl", workload.name(), cfg.seed).into());
    }
    Ok(cfg)
}

fn main() {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload NAME --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    COUNTING.store(cfg.trace, Ordering::Relaxed);
    let outcome = run(&cfg);
    for line in summary(&cfg, &outcome) {
        println!("{line}");
    }
    if let Some(path) = &cfg.span_log {
        println!("span log: {}", path.display());
    }
    println!("{}", result_line(&outcome));
    if !correct(&outcome) {
        std::process::exit(1);
    }
}
