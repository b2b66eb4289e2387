//! Plane geometry primitives used throughout the placement flow.

use std::fmt;

/// A 2-D point in database units.
///
/// ```
/// use xplace_db::Point;
/// let p = Point::new(1.0, 2.0) + Point::new(0.5, -1.0);
/// assert_eq!(p, Point::new(1.5, 1.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// x coordinate.
    pub x: f64,
    /// y coordinate.
    pub y: f64,
}

impl Point {
    /// Creates a point from coordinates.
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to another point.
    pub fn distance(self, other: Point) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }

    /// Manhattan (L1) distance to another point.
    pub fn manhattan_distance(self, other: Point) -> f64 {
        (self.x - other.x).abs() + (self.y - other.y).abs()
    }
}

impl std::ops::Add for Point {
    type Output = Point;
    fn add(self, rhs: Point) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl std::ops::Sub for Point {
    type Output = Point;
    fn sub(self, rhs: Point) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

/// An axis-aligned rectangle `[lx, ux) x [ly, uy)` in database units.
///
/// ```
/// use xplace_db::Rect;
/// let a = Rect::new(0.0, 0.0, 10.0, 5.0);
/// let b = Rect::new(5.0, 2.0, 20.0, 8.0);
/// assert_eq!(a.area(), 50.0);
/// assert_eq!(a.overlap_area(&b), 15.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Rect {
    /// Lower-left x.
    pub lx: f64,
    /// Lower-left y.
    pub ly: f64,
    /// Upper-right x.
    pub ux: f64,
    /// Upper-right y.
    pub uy: f64,
}

impl Rect {
    /// Creates a rectangle from its corners.
    ///
    /// # Panics
    ///
    /// Panics (debug builds only) if the rectangle is inverted.
    pub fn new(lx: f64, ly: f64, ux: f64, uy: f64) -> Self {
        debug_assert!(lx <= ux && ly <= uy, "inverted rectangle");
        Rect { lx, ly, ux, uy }
    }

    /// Creates a rectangle from a center point and dimensions.
    pub fn from_center(center: Point, width: f64, height: f64) -> Self {
        Rect::new(
            center.x - width * 0.5,
            center.y - height * 0.5,
            center.x + width * 0.5,
            center.y + height * 0.5,
        )
    }

    /// Width of the rectangle.
    #[inline]
    pub fn width(&self) -> f64 {
        self.ux - self.lx
    }

    /// Height of the rectangle.
    #[inline]
    pub fn height(&self) -> f64 {
        self.uy - self.ly
    }

    /// Area of the rectangle.
    #[inline]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// The center point.
    #[inline]
    pub fn center(&self) -> Point {
        Point::new(0.5 * (self.lx + self.ux), 0.5 * (self.ly + self.uy))
    }

    /// Whether `p` lies inside (closed on the lower edges, open on upper).
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.lx && p.x < self.ux && p.y >= self.ly && p.y < self.uy
    }

    /// Whether `other` lies fully within `self` (closed comparison).
    pub fn contains_rect(&self, other: &Rect) -> bool {
        other.lx >= self.lx && other.ux <= self.ux && other.ly >= self.ly && other.uy <= self.uy
    }

    /// The overlap area with another rectangle (zero when disjoint).
    pub fn overlap_area(&self, other: &Rect) -> f64 {
        let w = (self.ux.min(other.ux) - self.lx.max(other.lx)).max(0.0);
        let h = (self.uy.min(other.uy) - self.ly.max(other.ly)).max(0.0);
        w * h
    }

    /// Whether the two rectangles overlap with positive area.
    pub fn intersects(&self, other: &Rect) -> bool {
        self.lx < other.ux && other.lx < self.ux && self.ly < other.uy && other.ly < self.uy
    }

    /// The smallest rectangle containing both.
    pub fn union(&self, other: &Rect) -> Rect {
        Rect {
            lx: self.lx.min(other.lx),
            ly: self.ly.min(other.ly),
            ux: self.ux.max(other.ux),
            uy: self.uy.max(other.uy),
        }
    }

    /// Clamps a point into the rectangle (inclusive of edges).
    pub fn clamp_point(&self, p: Point) -> Point {
        Point::new(p.x.clamp(self.lx, self.ux), p.y.clamp(self.ly, self.uy))
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}] x [{}, {}]", self.lx, self.ux, self.ly, self.uy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_distances() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(a.distance(b), 5.0);
        assert_eq!(a.manhattan_distance(b), 7.0);
        assert_eq!(b - a, b);
    }

    #[test]
    fn rect_basic_measures() {
        let r = Rect::new(1.0, 2.0, 5.0, 10.0);
        assert_eq!(r.width(), 4.0);
        assert_eq!(r.height(), 8.0);
        assert_eq!(r.area(), 32.0);
        assert_eq!(r.center(), Point::new(3.0, 6.0));
    }

    #[test]
    fn from_center_round_trips() {
        let r = Rect::from_center(Point::new(10.0, 20.0), 4.0, 6.0);
        assert_eq!(r.center(), Point::new(10.0, 20.0));
        assert_eq!(r.width(), 4.0);
        assert_eq!(r.height(), 6.0);
    }

    #[test]
    fn overlap_of_disjoint_is_zero() {
        let a = Rect::new(0.0, 0.0, 1.0, 1.0);
        let b = Rect::new(2.0, 2.0, 3.0, 3.0);
        assert_eq!(a.overlap_area(&b), 0.0);
        assert!(!a.intersects(&b));
    }

    #[test]
    fn overlap_is_symmetric() {
        let a = Rect::new(0.0, 0.0, 10.0, 10.0);
        let b = Rect::new(5.0, 5.0, 15.0, 15.0);
        assert_eq!(a.overlap_area(&b), b.overlap_area(&a));
        assert_eq!(a.overlap_area(&b), 25.0);
        assert!(a.intersects(&b));
    }

    #[test]
    fn touching_rects_do_not_intersect() {
        let a = Rect::new(0.0, 0.0, 1.0, 1.0);
        let b = Rect::new(1.0, 0.0, 2.0, 1.0);
        assert!(!a.intersects(&b));
        assert_eq!(a.overlap_area(&b), 0.0);
    }

    #[test]
    fn containment() {
        let outer = Rect::new(0.0, 0.0, 10.0, 10.0);
        let inner = Rect::new(2.0, 2.0, 8.0, 8.0);
        assert!(outer.contains_rect(&inner));
        assert!(!inner.contains_rect(&outer));
        assert!(outer.contains(Point::new(0.0, 0.0)));
        assert!(!outer.contains(Point::new(10.0, 10.0)));
    }

    #[test]
    fn union_covers_both() {
        let a = Rect::new(0.0, 0.0, 1.0, 1.0);
        let b = Rect::new(5.0, -2.0, 6.0, 0.5);
        let u = a.union(&b);
        assert!(u.contains_rect(&a) && u.contains_rect(&b));
        assert_eq!(u, Rect::new(0.0, -2.0, 6.0, 1.0));
    }

    #[test]
    fn clamp_point_stays_inside() {
        let r = Rect::new(0.0, 0.0, 10.0, 10.0);
        assert_eq!(r.clamp_point(Point::new(-5.0, 20.0)), Point::new(0.0, 10.0));
        assert_eq!(r.clamp_point(Point::new(5.0, 5.0)), Point::new(5.0, 5.0));
    }
}
