//! The metric declarations in `BENCHMARK.json` and the result line.

use std::path::Path;

use crate::json::{self, Value};

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Decl {
    pub name: String,
    pub unit: String,
}

/// The metrics `BENCHMARK.json` declares.
#[derive(Debug, Clone)]
pub struct Declared {
    pub end_to_end: Vec<Decl>,
    pub per_layer: Vec<Decl>,
}

fn decls(doc: &Value, key: &str) -> Result<Vec<Decl>, String> {
    let items = doc
        .get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{key} must be an array"))?;
    items
        .iter()
        .map(|item| {
            let field = |k: &str| {
                item.get(k)
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("a {key} metric lacks its {k}"))
            };
            Ok(Decl {
                name: field("name")?,
                unit: field("unit")?,
            })
        })
        .collect()
}

impl Declared {
    /// Reads the declared metric names and units from `BENCHMARK.json`.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
        Self::parse(&text)
    }

    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = json::parse(text)?;
        Ok(Self {
            end_to_end: decls(&doc, "end_to_end")?,
            per_layer: decls(&doc, "per_layer")?,
        })
    }
}

/// Measured metrics, in insertion order.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    values: Vec<(String, String, f64)>,
}

impl Metrics {
    /// Sets `name` (replacing an earlier value).
    pub fn set(&mut self, name: &str, unit: &str, value: f64) {
        self.values.retain(|(n, _, _)| n != name);
        self.values
            .push((name.to_string(), unit.to_string(), value));
    }

    /// Errors unless exactly the declared metrics, with their units and
    /// finite values, were measured.
    pub fn check_against(&self, declared: &[Decl]) -> Result<(), String> {
        for d in declared {
            match self.values.iter().find(|(n, _, _)| *n == d.name) {
                None => return Err(format!("{} was not measured", d.name)),
                Some((_, unit, _)) if *unit != d.unit => {
                    return Err(format!(
                        "{} measured in {unit}, declared in {}",
                        d.name, d.unit
                    ))
                }
                Some((_, _, v)) if !v.is_finite() => {
                    return Err(format!("{} is not finite", d.name))
                }
                Some(_) => {}
            }
        }
        if let Some((n, _, _)) = self
            .values
            .iter()
            .find(|(n, _, _)| !declared.iter().any(|d| d.name == *n))
        {
            return Err(format!("{n} is not declared"));
        }
        Ok(())
    }

    /// One human-readable `name value unit` line per metric.
    pub fn lines(&self) -> Vec<String> {
        self.values
            .iter()
            .map(|(n, u, v)| format!("{n:<36} {v:>16.6} {u}"))
            .collect()
    }

    /// The final JSON result line.
    pub fn result_line(&self, correct: bool, attempted: usize, failed: usize) -> String {
        let body: Vec<String> = self
            .values
            .iter()
            .map(|(n, u, v)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::quote(n),
                    json::number(*v),
                    json::quote(u)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            body.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    const MAX_END_TO_END: usize = 16;
    const MAX_PER_LAYER: usize = 128;

    /// `[A-Za-z0-9_.-]{1,64}`, starting with a letter or digit.
    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    /// `[A-Za-z0-9_/%.-]{1,16}`.
    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    fn exact_keys(v: &Value, keys: &[&str], what: &str) -> Result<(), String> {
        if v.keys() != keys {
            return Err(format!(
                "{what} must have exactly the keys {keys:?}, has {:?}",
                v.keys()
            ));
        }
        Ok(())
    }

    fn check_metrics(doc: &Value, key: &str, max: usize, bounded: bool) -> Result<(), String> {
        let items = doc
            .get(key)
            .and_then(Value::as_array)
            .ok_or_else(|| format!("{key} must be an array"))?;
        if items.is_empty() || items.len() > max {
            return Err(format!("{key} must hold 1 to {max} metrics"));
        }
        for item in items {
            let keys: &[&str] = if bounded {
                &["name", "unit", "better", "bound"]
            } else {
                &["name", "unit", "better"]
            };
            exact_keys(item, keys, key)?;
            let name = item.get("name").and_then(Value::as_str).unwrap_or("");
            let unit = item.get("unit").and_then(Value::as_str).unwrap_or("");
            if !valid_name(name) || !valid_unit(unit) {
                return Err(format!("bad metric {name:?} in {unit:?}"));
            }
            if !matches!(
                item.get("better").and_then(Value::as_str),
                Some("lower" | "higher")
            ) {
                return Err(format!("{name}: better must be lower or higher"));
            }
            if bounded
                && !matches!(item.get("bound").and_then(Value::as_f64), Some(b) if b > 0.0 && b <= 0.25)
            {
                return Err(format!("{name}: bound must be in (0, 0.25]"));
            }
        }
        Ok(())
    }

    /// The limits `BENCHMARK.json` must meet: at most 64 KiB, exact keys,
    /// a whole `run_seconds` from 1 to 60, 2–8 workloads with a one-line
    /// `why` of at most 200 characters, 1–16 bounded end-to-end metrics
    /// (`setup_s` in s among them) with bounds ≤ 0.25, 1–128 per-layer
    /// metrics, valid names and units, every name used once.
    fn check_limits(text: &str) -> Result<(), String> {
        if text.len() > 64 * 1024 {
            return Err("larger than 64 KiB".into());
        }
        let doc = json::parse(text)?;
        exact_keys(
            &doc,
            &[
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer",
            ],
            "BENCHMARK.json",
        )?;
        let run_seconds = doc
            .get("run_seconds")
            .and_then(Value::as_f64)
            .unwrap_or(0.0);
        if run_seconds.fract() != 0.0 || !(1.0..=60.0).contains(&run_seconds) {
            return Err("run_seconds must be a whole number from 1 to 60".into());
        }
        let workloads = doc
            .get("workloads")
            .and_then(Value::as_array)
            .ok_or("workloads must be an array")?;
        if !(2..=8).contains(&workloads.len()) {
            return Err("workloads must hold 2 to 8 entries".into());
        }
        for w in workloads {
            exact_keys(w, &["name", "why"], "a workload")?;
            let name = w.get("name").and_then(Value::as_str).unwrap_or("");
            let why = w.get("why").and_then(Value::as_str).unwrap_or("");
            if !valid_name(name) || why.is_empty() || why.len() > 200 || why.contains('\n') {
                return Err(format!("bad workload {name:?}"));
            }
        }
        check_metrics(&doc, "end_to_end", MAX_END_TO_END, true)?;
        check_metrics(&doc, "per_layer", MAX_PER_LAYER, false)?;
        let declared = Declared::parse(text)?;
        let mut names: Vec<&str> = workloads
            .iter()
            .filter_map(|w| w.get("name").and_then(Value::as_str))
            .chain(declared.end_to_end.iter().map(|d| d.name.as_str()))
            .chain(declared.per_layer.iter().map(|d| d.name.as_str()))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        if names.len() != total {
            return Err("a name is used twice".into());
        }
        match declared.end_to_end.iter().find(|d| d.name == "setup_s") {
            Some(d) if d.unit == "s" => Ok(()),
            _ => Err("end_to_end must declare setup_s in s".into()),
        }
    }

    #[test]
    fn the_committed_benchmark_json_is_valid() {
        check_limits(BENCHMARK_JSON).expect("BENCHMARK.json meets its limits");
        let doc = json::parse(BENCHMARK_JSON).unwrap();
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .filter_map(|w| w.get("name").and_then(Value::as_str))
            .collect();
        let known: Vec<&str> = crate::workload::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, known, "BENCHMARK.json lists every workload");
    }

    #[test]
    fn names_and_units_are_checked() {
        assert!(valid_name("tensor.gemm.fwd_gflops"));
        assert!(valid_name("9lives"));
        assert!(!valid_name("_private"));
        assert!(!valid_name("with space"));
        assert!(!valid_name("slash/name"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("1/s") && valid_unit("%") && valid_unit("MB"));
        assert!(!valid_unit("") && !valid_unit("per second"));
    }

    fn doc(e2e: usize, layers: usize, bound: f64) -> String {
        let metric = |i: usize, bounded: bool| {
            let b = if bounded {
                format!(", \"bound\": {bound}")
            } else {
                String::new()
            };
            let name = if bounded && i == 0 {
                "setup_s".to_string()
            } else {
                format!("m{i}{}", if bounded { "e" } else { "l" })
            };
            format!("{{\"name\": \"{name}\", \"unit\": \"s\", \"better\": \"lower\"{b}}}")
        };
        let e: Vec<String> = (0..e2e).map(|i| metric(i, true)).collect();
        let l: Vec<String> = (0..layers).map(|i| metric(i, false)).collect();
        format!(
            "{{\"command\": [\"x\"], \"paths\": [\"p\"], \"run_seconds\": 10, \
             \"workloads\": [{{\"name\": \"a\", \"why\": \"w\"}}, {{\"name\": \"b\", \"why\": \"w\"}}], \
             \"end_to_end\": [{}], \"per_layer\": [{}]}}",
            e.join(", "),
            l.join(", ")
        )
    }

    #[test]
    fn limits_are_enforced() {
        assert!(check_limits(&doc(16, 128, 0.25)).is_ok());
        assert!(check_limits(&doc(17, 1, 0.1)).is_err());
        assert!(check_limits(&doc(2, 129, 0.1)).is_err());
        assert!(check_limits(&doc(2, 1, 0.3)).is_err());
        assert!(check_limits(&doc(2, 0, 0.1)).is_err());
        // The run only needs the declared names and units.
        let d = Declared::parse(&doc(3, 2, 0.1)).unwrap();
        assert_eq!(d.end_to_end.len(), 3);
        assert_eq!(d.per_layer[1].name, "m1l");
    }

    #[test]
    fn result_line_has_exactly_four_keys() {
        let mut m = Metrics::default();
        m.set("run_s", "s", 1.25);
        m.set("run_s", "s", 1.5);
        let line = m.result_line(true, 3, 0);
        let v = json::parse(&line).unwrap();
        assert_eq!(v.keys(), ["correct", "attempted", "failed", "metrics"]);
        let run = v.get("metrics").unwrap().get("run_s").unwrap();
        assert_eq!(run.get("value").unwrap().as_f64(), Some(1.5));
        assert_eq!(run.get("unit").unwrap().as_str(), Some("s"));
        let decl = [Decl {
            name: "run_s".into(),
            unit: "s".into(),
        }];
        assert!(m.check_against(&decl).is_ok());
        m.set("extra", "s", 1.0);
        assert!(m.check_against(&decl).is_err());
    }
}
