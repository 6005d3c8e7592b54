package repro.tag

/** Canonical identity for attribute-vertex values.
  *
  * §3 creates exactly one attribute vertex per value of the active domain,
  * shared across attributes and relations. For that to work across SQL types
  * we normalize: integral types → Long, dates → epoch-day Long tagged as
  * date, strings → String. Floats are deliberately NOT materialized as
  * attribute vertices (the paper's §3 "tricky domains" rule) — they stay
  * payload inside tuple vertices.
  */
object ValueKey {

  /** Marker wrapper so a DATE with epoch-day 5 is a different attribute
    * vertex than the integer 5 (different active-domain types).
    */
  final case class DateKey(epochDay: Long) extends Serializable

  def normalize(v: Any): Any = v match {
    case null                 => null
    case l: Long              => l
    case i: Int               => i.toLong
    case s: Short             => s.toLong
    case b: Byte              => b.toLong
    case s: String            => s
    case d: java.sql.Date     => DateKey(d.toLocalDate.toEpochDay)
    case d: java.time.LocalDate => DateKey(d.toEpochDay)
    case b: Boolean           => b
    case d: java.math.BigDecimal if d.scale <= 0 => d.longValueExact()
    case other                => other // doubles etc: payload only, never a join key
  }

  /** True when a normalized value may be materialized as an attribute vertex. */
  def materializable(v: Any): Boolean = v match {
    case null                      => false
    case _: Long | _: String       => true
    case _: DateKey | _: Boolean   => true
    case _                         => false
  }
}
