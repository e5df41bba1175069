//! What a run prints: every metric by name with its unit, then, as the last
//! line of standard output, the one-line JSON summary the driver reads.

use crate::pipeline::{Reading, Report};
use std::fmt::Write as _;

/// A number as measured, with all its digits, in a form JSON accepts.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        // `{:?}` prints the shortest text that reads back to the same f64
        // and always carries a `.` or an exponent.
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// The summary line. With `trace` its metrics are the per-layer ones,
/// without it the end-to-end ones: exactly the keys `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn summary_line(report: &Report, trace: bool) -> String {
    let metrics = if trace {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.correct(),
        report.attempted.max(1),
        report.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

/// The readable listing: one `name value unit` line per metric.
pub fn listing(title: &str, metrics: &[Reading]) -> String {
    let mut out = format!("{title}\n");
    for m in metrics {
        let _ = writeln!(out, "  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::reading;
    use openea_runtime::json::{parse, Json};

    fn report() -> Report {
        Report {
            end_to_end: vec![
                reading("setup_s", 0.234_567_891_234, "s"),
                reading("align_qps", 34_567.125, "1/s"),
            ],
            per_layer: vec![
                reading("serve.parse_us", 1.5, "us"),
                reading("host.nproc", 2.0, "count"),
            ],
            attempted: 1000,
            failed: 0,
            notes: Vec::new(),
        }
    }

    #[test]
    fn the_summary_has_exactly_the_drivers_keys() {
        for trace in [false, true] {
            let line = summary_line(&report(), trace);
            assert!(!line.contains('\n'));
            let Json::Object(members) = parse(&line).expect("valid JSON") else {
                panic!("summary is not an object");
            };
            let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(members[0].1, Json::Bool(true));
            assert_eq!(members[1].1, Json::Int(1000));
            assert_eq!(members[2].1, Json::Int(0));
            let Json::Object(metrics) = &members[3].1 else {
                panic!("metrics is not an object");
            };
            let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            if trace {
                assert_eq!(names, ["serve.parse_us", "host.nproc"]);
            } else {
                assert_eq!(names, ["setup_s", "align_qps"]);
            }
            for (_, m) in metrics {
                let Json::Object(fields) = m else {
                    panic!("metric is not an object");
                };
                let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["value", "unit"]);
                assert!(fields[0].1.as_f64().is_some());
                assert!(fields[1].1.as_str().is_some());
            }
        }
    }

    #[test]
    fn values_keep_all_their_digits_and_failures_show() {
        let mut r = report();
        r.failed = 3;
        let line = summary_line(&r, false);
        assert!(line.contains("\"value\": 0.234567891234,"), "{line}");
        assert!(line.contains("\"correct\": false"));
        assert!(line.contains("\"failed\": 3"));
        assert_eq!(json_number(2.0), "2.0");
        assert_eq!(json_number(f64::NAN), "0.0");
    }

    #[test]
    fn attempted_is_at_least_one() {
        let mut r = report();
        r.attempted = 0;
        assert!(summary_line(&r, false).contains("\"attempted\": 1,"));
    }

    #[test]
    fn the_listing_names_every_metric_with_its_unit() {
        let text = listing("end-to-end", &report().end_to_end);
        assert!(text.starts_with("end-to-end\n"));
        assert!(text.contains("setup_s") && text.contains(" s\n"));
        assert!(text.contains("align_qps") && text.contains(" 1/s\n"));
    }
}
