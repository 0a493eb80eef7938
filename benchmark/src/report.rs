//! What one run reports, and how it is printed: `name unit value` lines for
//! people, then one JSON object on the last line for the driver.

use q_integration::serve::Json;

use crate::metrics::{END_TO_END, PER_LAYER};

pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    /// `(name, value)` in emission order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Tail percentiles with fewer than ten samples beyond them: still
    /// emitted, printed as `n/a`, and a failure of `qbench all`.
    pub undersampled: Vec<&'static str>,
    pub notes: Vec<String>,
}

/// Unit of a metric by name, from the tables.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find_map(|(n, unit)| (n == name).then_some(unit))
        .unwrap_or_else(|| panic!("metric {name} is not in the tables"))
}

impl Outcome {
    pub fn new(attempted: usize, failed: usize) -> Self {
        Outcome {
            attempted,
            failed,
            metrics: Vec::new(),
            undersampled: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64) {
        assert!(value.is_finite(), "metric {name} is not a number: {value}");
        self.metrics.push((name, value));
    }

    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The driver's result object.
    pub fn to_json(&self) -> Json {
        Json::Object(vec![
            ("correct".to_string(), Json::Bool(self.correct())),
            ("attempted".to_string(), Json::Int(self.attempted as i64)),
            ("failed".to_string(), Json::Int(self.failed as i64)),
            (
                "metrics".to_string(),
                Json::Object(
                    self.metrics
                        .iter()
                        .map(|(name, value)| {
                            (
                                name.to_string(),
                                Json::Object(vec![
                                    ("value".to_string(), Json::Float(*value)),
                                    ("unit".to_string(), Json::Str(unit_of(name).to_string())),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Print the notes, every metric as `name unit value`, and the result
    /// object as the last line.
    pub fn print(&self) {
        for note in &self.notes {
            println!("{note}");
        }
        for (name, value) in &self.metrics {
            if self.undersampled.contains(name) {
                println!(
                    "{name} {} n/a (fewer than 10 samples beyond it; raw {value})",
                    unit_of(name)
                );
            } else {
                println!("{name} {} {value}", unit_of(name));
            }
        }
        println!(
            "failed_share ratio {}",
            self.failed as f64 / self.attempted.max(1) as f64
        );
        println!("{}", self.to_json().encode());
    }
}
