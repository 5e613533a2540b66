//! Terminal chart rendering for the reproduction records: log-scale ASCII
//! line charts of time-vs-zipf series, so `plot` can redraw the paper's
//! figures straight from the JSON records.

use std::collections::BTreeMap;

use crate::Measurement;

/// Options for [`render_chart`].
#[derive(Debug, Clone)]
pub struct ChartOptions {
    /// Plot width in character columns (x axis resolution).
    pub width: usize,
    /// Plot height in character rows (y axis resolution).
    pub height: usize,
    /// Log-scale the y axis (the paper's figures are log-scale — join time
    /// spans four orders of magnitude).
    pub log_y: bool,
}

impl Default for ChartOptions {
    fn default() -> Self {
        Self {
            width: 60,
            height: 16,
            log_y: true,
        }
    }
}

/// Marker characters assigned to series in insertion order.
const MARKS: [char; 8] = ['*', 'o', '+', 'x', '#', '@', '%', '&'];

/// Renders measurements as an ASCII chart: x = zipf factor, y = seconds
/// (log scale by default), one marker per series.
///
/// Series are ordered by first appearance; points in a series are sorted by
/// x. Returns a multi-line string ending with the legend.
pub fn render_chart(measurements: &[Measurement], opts: &ChartOptions) -> String {
    if measurements.is_empty() {
        return "(no data)\n".to_string();
    }
    // Group by series, preserving first-appearance order.
    let mut order: Vec<String> = Vec::new();
    let mut series: BTreeMap<String, Vec<(f64, f64)>> = BTreeMap::new();
    for m in measurements {
        if !series.contains_key(&m.series) {
            order.push(m.series.clone());
        }
        series
            .entry(m.series.clone())
            .or_default()
            .push((m.zipf, m.seconds));
    }
    for pts in series.values_mut() {
        // total_cmp: a NaN zipf in a hand-edited record must not panic the
        // renderer (it sorts last and plots at the clamp edge instead).
        pts.sort_by(|a, b| a.0.total_cmp(&b.0));
    }

    let xs: Vec<f64> = measurements.iter().map(|m| m.zipf).collect();
    let ys: Vec<f64> = measurements.iter().map(|m| m.seconds.max(1e-9)).collect();
    let (x_min, x_max) = min_max(&xs);
    let (y_min, y_max) = min_max(&ys);

    let y_pos = |y: f64| -> usize {
        let y = y.max(1e-9);
        let frac = if opts.log_y {
            if (y_max / y_min.max(1e-12)).ln() < 1e-9 {
                0.5
            } else {
                (y / y_min).ln() / (y_max / y_min).ln()
            }
        } else if (y_max - y_min).abs() < 1e-12 {
            0.5
        } else {
            (y - y_min) / (y_max - y_min)
        };
        ((1.0 - frac.clamp(0.0, 1.0)) * (opts.height - 1) as f64).round() as usize
    };
    let x_pos = |x: f64| -> usize {
        let frac = if (x_max - x_min).abs() < 1e-12 {
            0.5
        } else {
            (x - x_min) / (x_max - x_min)
        };
        (frac.clamp(0.0, 1.0) * (opts.width - 1) as f64).round() as usize
    };

    let mut grid = vec![vec![' '; opts.width]; opts.height];
    for (si, name) in order.iter().enumerate() {
        let mark = MARKS[si % MARKS.len()];
        for &(x, y) in &series[name] {
            let (cx, cy) = (x_pos(x), y_pos(y));
            // Later series win ties; connect-the-dots is omitted to keep
            // overlapping series readable.
            grid[cy][cx] = mark;
        }
    }

    let mut out = String::new();
    out.push_str(&format!(
        "y: {} … {} ({} scale)\n",
        format_seconds(y_min),
        format_seconds(y_max),
        if opts.log_y { "log" } else { "linear" }
    ));
    for row in &grid {
        out.push('|');
        out.extend(row.iter());
        out.push('\n');
    }
    out.push('+');
    out.extend(std::iter::repeat_n('-', opts.width));
    out.push('\n');
    out.push_str(&format!(" x: zipf {x_min:.1} … {x_max:.1}\n"));
    for (si, name) in order.iter().enumerate() {
        out.push_str(&format!("   {} {}\n", MARKS[si % MARKS.len()], name));
    }
    out
}

fn min_max(values: &[f64]) -> (f64, f64) {
    values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        })
}

fn format_seconds(s: f64) -> String {
    if s < 1e-3 {
        format!("{:.1}us", s * 1e6)
    } else if s < 1.0 {
        format!("{:.1}ms", s * 1e3)
    } else {
        format!("{s:.2}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(series: &str, zipf: f64, seconds: f64) -> Measurement {
        Measurement {
            series: series.to_string(),
            zipf,
            seconds,
        }
    }

    #[test]
    fn empty_input() {
        assert_eq!(render_chart(&[], &ChartOptions::default()), "(no data)\n");
    }

    #[test]
    fn single_series_renders_all_points() {
        let data: Vec<Measurement> = (0..=10)
            .map(|i| m("A", i as f64 * 0.1, 1e-3 * (i + 1) as f64))
            .collect();
        let chart = render_chart(&data, &ChartOptions::default());
        // 11 points (some may share a grid cell) + 1 legend marker.
        let marks = chart.matches('*').count();
        assert!((6..=12).contains(&marks), "{marks} marks\n{chart}");
        assert!(chart.contains("   * A"));
        assert!(chart.contains("zipf 0.0 … 1.0"));
    }

    #[test]
    fn growth_curve_slopes_down_the_grid() {
        // Exponential growth on a log axis is a straight diagonal: the
        // highest-x point must be on the top row, the lowest on the bottom.
        let data: Vec<Measurement> = (0..=10)
            .map(|i| m("A", i as f64 * 0.1, 1e-3 * 10f64.powi(i)))
            .collect();
        let opts = ChartOptions::default();
        let chart = render_chart(&data, &opts);
        let rows: Vec<&str> = chart.lines().skip(1).take(opts.height).collect();
        assert!(rows.first().unwrap().trim_end().ends_with('*'), "{chart}");
        assert!(
            rows.last().unwrap().starts_with("| *") || rows.last().unwrap().starts_with("|*"),
            "{chart}"
        );
    }

    #[test]
    fn multiple_series_get_distinct_marks() {
        let data = vec![m("A", 0.0, 1.0), m("B", 1.0, 2.0)];
        let chart = render_chart(&data, &ChartOptions::default());
        assert!(chart.contains('*') && chart.contains('o'), "{chart}");
        assert!(chart.contains("   * A"));
        assert!(chart.contains("   o B"));
    }

    #[test]
    fn constant_series_does_not_panic() {
        let data = vec![m("A", 0.0, 5.0), m("A", 1.0, 5.0)];
        let chart = render_chart(&data, &ChartOptions::default());
        // 2 points + 1 legend mark (points may coincide on y but not x).
        assert_eq!(chart.matches('*').count(), 3);
    }

    #[test]
    fn linear_scale_option() {
        let data = vec![m("A", 0.0, 1.0), m("A", 1.0, 2.0)];
        let opts = ChartOptions {
            log_y: false,
            ..ChartOptions::default()
        };
        assert!(render_chart(&data, &opts).contains("linear scale"));
    }
}
