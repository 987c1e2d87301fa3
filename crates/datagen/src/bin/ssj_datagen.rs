//! `ssj-datagen` — writes the workspace's synthetic corpora to text files
//! (one record per line), ready for the `ssjoin` CLI.
//!
//! ```text
//! ssj-datagen <address|dblp> --count N [--seed S] [--output FILE]
//! ```

#![expect(clippy::disallowed_methods, reason = "the requested corpus file")]

use ssj_datagen::{generate_addresses, generate_dblp, AddressConfig, DblpConfig};
use std::io::Write;
use std::process::ExitCode;

const USAGE: &str = "ssj-datagen <address|dblp> --count N [--seed S] [--output FILE]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(kind) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let mut count = 1_000usize;
    let mut seed = 42u64;
    let mut output: Option<String> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--count" => {
                i += 1;
                count = match args.get(i).and_then(|v| v.parse().ok()) {
                    Some(c) => c,
                    None => {
                        eprintln!("--count needs a positive integer");
                        return ExitCode::FAILURE;
                    }
                };
            }
            "--seed" => {
                i += 1;
                seed = match args.get(i).and_then(|v| v.parse().ok()) {
                    Some(s) => s,
                    None => {
                        eprintln!("--seed needs an integer");
                        return ExitCode::FAILURE;
                    }
                };
            }
            "--output" => {
                i += 1;
                output = args.get(i).cloned();
                if output.is_none() {
                    eprintln!("--output needs a path");
                    return ExitCode::FAILURE;
                }
            }
            other => {
                eprintln!("unknown option {other:?}\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }

    let records = match kind.as_str() {
        "address" => {
            let base = (count as f64 / 1.25).round().max(1.0) as usize;
            let mut v = generate_addresses(AddressConfig {
                base_records: base,
                seed,
                ..Default::default()
            });
            v.truncate(count);
            v
        }
        "dblp" => {
            let base = (count as f64 / 1.2).round().max(1.0) as usize;
            let mut v = generate_dblp(DblpConfig {
                base_records: base,
                seed,
                ..Default::default()
            });
            v.truncate(count);
            v
        }
        other => {
            eprintln!("unknown dataset {other:?}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    let result = match &output {
        Some(path) => std::fs::File::create(path).map(|f| {
            let mut w = std::io::BufWriter::new(f);
            for r in &records {
                writeln!(w, "{r}").expect("write record");
            }
        }),
        None => {
            let stdout = std::io::stdout();
            let mut w = std::io::BufWriter::new(stdout.lock());
            for r in &records {
                writeln!(w, "{r}").expect("write record");
            }
            Ok(())
        }
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {} {kind} records", records.len());
    ExitCode::SUCCESS
}
