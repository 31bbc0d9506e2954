//! The two output lines of a run: a report with the host fingerprint and
//! every named figure, then the result object whose shape `BENCHMARK.json`
//! consumers expect (always the last line of standard output).

use std::fmt::Write as _;

use crate::{host, Args};

/// One measured value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run that passed every correctness gate reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// The metrics `BENCHMARK.json` declares for this trace mode.
    pub metrics: Vec<Metric>,
    /// Further named figures, printed on the report line only.
    pub report: Vec<Metric>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    }

    pub fn note(&mut self, name: &str, value: f64, unit: &'static str) {
        self.report.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    }

    pub fn print(&self, args: &Args) {
        let mut report = String::new();
        let _ = write!(
            report,
            "{{\"report\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\
             \"cpu_model\":\"{}\",\"nproc\":{},\"figures\":{}}}}}",
            args.workload,
            args.seed,
            args.seconds,
            u8::from(args.trace),
            escape(&host::cpu_model()),
            host::nproc(),
            metrics_json(&self.report),
        );
        println!("{report}");
        println!(
            "{{\"correct\":true,\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.attempted.max(1),
            self.failed,
            metrics_json(&self.metrics)
        );
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                number(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

/// JSON has no NaN or infinity; a value that is not finite is a bug in the
/// harness, reported as 0 so the line still parses.
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_owned()
    }
}

fn escape(text: &str) -> String {
    text.replace('\\', "\\\\").replace('"', "\\\"")
}
