//! `tracecheck` — validates a Chrome trace-event JSON file.
//!
//! A std-only checker for the traces `tmfrt map --trace-out` and
//! `table1 --trace-dir` emit: the CI smoke job (and anyone debugging a
//! trace that Perfetto refuses to load) runs it instead of eyeballing
//! JSON. Checks, in order:
//!
//! 1. the file parses as JSON with a `traceEvents` array;
//! 2. every event has a `name` and a phase (`B`/`E`/`i`/`M`);
//! 3. non-metadata events carry a `ts` and timestamps never go
//!    backwards (the exporter emits ring order, which is time order);
//! 4. `B`/`E` spans balance: every exit matches the innermost open
//!    enter and nothing is left open at the end.
//!
//! Exits 0 with a one-line summary on success, 1 with the first
//! violation otherwise, 2 on usage errors.

use engine::{log, JsonValue};

fn main() {
    log::init(false);
    let mut args = std::env::args().skip(1);
    let (Some(path), None) = (args.next(), args.next()) else {
        eprintln!("usage: tracecheck <trace.json>");
        std::process::exit(2);
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            log::error(
                "tracecheck",
                "cannot read trace",
                &[
                    ("path", JsonValue::str(path)),
                    ("error", JsonValue::str(e.to_string())),
                ],
            );
            std::process::exit(1);
        }
    };
    match check(&text) {
        Ok(summary) => println!("{path}: OK ({summary})"),
        Err(e) => {
            log::error(
                "tracecheck",
                "trace is invalid",
                &[("path", JsonValue::str(path)), ("error", JsonValue::str(e))],
            );
            std::process::exit(1);
        }
    }
}

/// Validates trace text, returning a human-readable summary.
fn check(text: &str) -> Result<String, String> {
    let doc = JsonValue::parse(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .ok_or("missing `traceEvents` array")?;
    let mut stack: Vec<String> = Vec::new();
    let mut last_ts = 0u64;
    let mut spans = 0usize;
    let mut instants = 0usize;
    for (i, ev) in events.iter().enumerate() {
        let name = ev
            .get("name")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("event {i}: missing `name`"))?;
        let ph = ev
            .get("ph")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("event {i}: missing `ph`"))?;
        if ph == "M" {
            continue; // metadata events carry no timestamp
        }
        let ts = ev
            .get("ts")
            .and_then(|v| v.as_u64())
            .ok_or_else(|| format!("event {i} ({name}): missing `ts`"))?;
        if ts < last_ts {
            return Err(format!(
                "event {i} ({name}): timestamp {ts} < previous {last_ts}"
            ));
        }
        last_ts = ts;
        match ph {
            "B" => stack.push(name.to_string()),
            "E" => {
                let open = stack
                    .pop()
                    .ok_or_else(|| format!("event {i}: exit `{name}` with no open span"))?;
                if open != name {
                    return Err(format!(
                        "event {i}: exit `{name}` does not match open span `{open}`"
                    ));
                }
                spans += 1;
            }
            "i" => instants += 1,
            other => return Err(format!("event {i} ({name}): unknown phase `{other}`")),
        }
    }
    if !stack.is_empty() {
        return Err(format!("unclosed spans at end of trace: {stack:?}"));
    }
    Ok(format!(
        "{} events, {spans} balanced spans, {instants} instants",
        events.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exported_trace() -> String {
        engine::trace::set_enabled(true);
        engine::trace::job_start();
        {
            let _outer = engine::layer::enter(engine::Layer::Label);
            engine::trace::event1("tick", "n", 1);
            let _inner = engine::layer::enter_with(engine::Layer::MinCut, [Some(("k", 5)), None]);
        }
        let buffer = engine::trace::take_thread();
        engine::trace::set_enabled(false);
        engine::trace::chrome_trace(&buffer, "test").render_pretty()
    }

    #[test]
    fn real_export_passes() {
        let summary = check(&exported_trace()).expect("exported trace must validate");
        assert!(summary.contains("2 balanced spans"), "{summary}");
        assert!(summary.contains("1 instants"), "{summary}");
    }

    #[test]
    fn malformed_traces_fail() {
        assert!(check("not json").is_err());
        assert!(check("{\"foo\": 1}").is_err());
        // Mismatched exit name.
        let bad = r#"{"traceEvents":[
            {"name":"a","ph":"B","ts":1,"pid":1,"tid":1},
            {"name":"b","ph":"E","ts":2,"pid":1,"tid":1}]}"#;
        assert!(check(bad).unwrap_err().contains("does not match"));
        // Backwards timestamp.
        let back = r#"{"traceEvents":[
            {"name":"a","ph":"i","ts":5,"pid":1,"tid":1},
            {"name":"b","ph":"i","ts":4,"pid":1,"tid":1}]}"#;
        assert!(check(back).unwrap_err().contains("timestamp"));
        // Unclosed span.
        let open = r#"{"traceEvents":[{"name":"a","ph":"B","ts":1,"pid":1,"tid":1}]}"#;
        assert!(check(open).unwrap_err().contains("unclosed"));
    }
}
