//! The tempograph benchmark: seeded TI-BSP workloads timed end to end
//! on every transport, and a traced run that splits them into layers.
//! `run.py` builds and runs the `perfbench` binary; see `README.md`.

pub mod layers;
pub mod measure;
pub mod workload;

/// A flat JSON object written in insertion order.
#[derive(Default)]
pub struct JsonObj(Vec<(String, String)>);

impl JsonObj {
    pub fn num(&mut self, key: &str, v: f64) -> &mut Self {
        assert!(v.is_finite(), "{key} is not a finite number: {v}");
        self.0.push((key.to_string(), format!("{v}")));
        self
    }
    pub fn int(&mut self, key: &str, v: u64) -> &mut Self {
        self.0.push((key.to_string(), v.to_string()));
        self
    }
    pub fn str(&mut self, key: &str, v: &str) -> &mut Self {
        let escaped = v
            .replace('\\', "\\\\")
            .replace('"', "\\\"")
            .replace('\n', "\\n");
        self.0.push((key.to_string(), format!("\"{escaped}\"")));
        self
    }
    pub fn nums(&mut self, key: &str, vs: &[f64]) -> &mut Self {
        let items: Vec<String> = vs.iter().map(|v| format!("{v}")).collect();
        self.0
            .push((key.to_string(), format!("[{}]", items.join(","))));
        self
    }
    pub fn obj(&mut self, key: &str, o: &JsonObj) -> &mut Self {
        self.0.push((key.to_string(), o.render()));
        self
    }
    pub fn render(&self) -> String {
        let fields: Vec<String> = self.0.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
        format!("{{{}}}", fields.join(","))
    }
}
