//! Timing model (§IV-C): critical paths of the synthesized streamers.

/// The synthesized streamers' critical-path lengths in picoseconds
/// (GF22FDX, SSG corner, 0.72 V).
#[derive(Clone, Copy, Debug)]
pub struct StreamerTiming {
    /// Baseline SSR address generator.
    pub ssr_ps: f64,
    /// ISSR address generator (index serializer + offset adder added).
    pub issr_ps: f64,
    /// Target clock period.
    pub clock_ps: f64,
}

impl StreamerTiming {
    /// The paper's synthesis results: 301 ps → 425 ps at a 1 GHz target.
    #[must_use]
    pub fn paper_results() -> Self {
        Self { ssr_ps: 301.0, issr_ps: 425.0, clock_ps: 1000.0 }
    }

    /// Whether the ISSR still meets the Snitch clock target.
    #[must_use]
    pub fn meets_clock(&self) -> bool {
        self.issr_ps <= self.clock_ps
    }

    /// Slack at the target clock, in picoseconds.
    #[must_use]
    pub fn slack_ps(&self) -> f64 {
        self.clock_ps - self.issr_ps
    }

    /// Relative path growth over the SSR.
    #[must_use]
    pub fn growth(&self) -> f64 {
        (self.issr_ps - self.ssr_ps) / self.ssr_ps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_paths() {
        let t = StreamerTiming::paper_results();
        assert!(t.meets_clock());
        assert!(t.slack_ps() > 500.0, "the ISSR easily meets 1 GHz");
        assert!((t.growth() - 0.412).abs() < 0.01);
    }
}
