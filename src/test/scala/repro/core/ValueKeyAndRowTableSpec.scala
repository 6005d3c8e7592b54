package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.tag.ValueKey

class ValueKeySpec extends AnyFunSuite {
  import ValueKey._

  test("integral types normalize to Long and collapse")(assert(
    normalize(5) == normalize(5L) && normalize(5) == normalize(5.toShort) && normalize(5) == 5L))

  test("strings normalize to themselves")(assert(normalize("abc") == "abc"))

  test("sql dates and local dates collapse to DateKey") {
    val d = java.sql.Date.valueOf("2020-02-29")
    assert(normalize(d) == normalize(java.time.LocalDate.of(2020, 2, 29)))
    assert(normalize(d).isInstanceOf[DateKey])
  }

  test("date keys are distinct from equal-valued longs") {
    assert(normalize(java.sql.Date.valueOf("1970-01-06")) != normalize(5L))
  }

  test("integral BigDecimal normalizes to Long")(
    assert(normalize(new java.math.BigDecimal("42")) == 42L))

  test("doubles are not materializable")(assert(!materializable(normalize(1.5))))
  test("nulls are not materializable")(assert(!materializable(normalize(null))))
  test("longs, strings, dates, booleans are materializable") {
    assert(materializable(normalize(7)))
    assert(materializable(normalize("x")))
    assert(materializable(normalize(java.sql.Date.valueOf("2001-01-01"))))
    assert(materializable(normalize(true)))
  }
}

class RowTableSpec extends AnyFunSuite {
  import RowTable._

  private def t(kvs: (String, Any)*) = kvs.toMap

  test("natural join on a shared column") {
    val a = Vector(t("x" -> 1, "y" -> 2), t("x" -> 2, "y" -> 3))
    val b = Vector(t("x" -> 1, "z" -> 9))
    assert(naturalJoin(a, b) == Vector(t("x" -> 1, "y" -> 2, "z" -> 9)))
  }

  test("disjoint columns give the Cartesian combination") {
    val a = Vector(t("x" -> 1), t("x" -> 2))
    val b = Vector(t("z" -> 9), t("z" -> 8))
    assert(naturalJoin(a, b).size == 4)
  }

  test("empty side gives empty join") {
    assert(naturalJoin(Vector.empty, Vector(t("a" -> 1))) == empty)
    assert(naturalJoin(Vector(t("a" -> 1)), Vector.empty) == empty)
  }

  test("bag semantics: duplicates multiply") {
    val a = Vector(t("x" -> 1), t("x" -> 1))
    val b = Vector(t("x" -> 1, "y" -> 2), t("x" -> 1, "y" -> 2))
    assert(naturalJoin(a, b).size == 4)
  }

  test("multi-column match requires all shared columns to agree") {
    val a = Vector(t("x" -> 1, "y" -> 2, "p" -> 0))
    val b = Vector(t("x" -> 1, "y" -> 3, "q" -> 1), t("x" -> 1, "y" -> 2, "q" -> 2))
    assert(naturalJoin(a, b) == Vector(t("x" -> 1, "y" -> 2, "p" -> 0, "q" -> 2)))
  }

  test("naturalJoinAll over several tables") {
    val r = naturalJoinAll(Seq(
      Vector(t("a" -> 1)), Vector(t("b" -> 2)), Vector(t("a" -> 1, "c" -> 3))))
    assert(r == Vector(t("a" -> 1, "b" -> 2, "c" -> 3)))
  }

  test("naturalJoinAll of nothing is empty")(assert(naturalJoinAll(Nil) == empty))
}

class AggregatesSpec extends AnyFunSuite {

  test("AggCell accumulates sum/count/min/max") {
    val c = Seq(3.0, 1.0, 2.0).foldLeft(AggCell.zero)(_ add _)
    assert(c.result(AggFunc.Sum) == 6.0)
    assert(c.result(AggFunc.Count) == 3.0)
    assert(c.result(AggFunc.Avg) == 2.0)
    assert(c.result(AggFunc.Min) == 1.0)
    assert(c.result(AggFunc.Max) == 3.0)
  }

  test("AggCell merge equals accumulation") {
    val l = Seq(1.0, 5.0).foldLeft(AggCell.zero)(_ add _)
    val r = Seq(2.0).foldLeft(AggCell.zero)(_ add _)
    val m = l.merge(r)
    assert(m.result(AggFunc.Sum) == 8.0 && m.result(AggFunc.Count) == 3.0 &&
      m.result(AggFunc.Min) == 1.0 && m.result(AggFunc.Max) == 5.0)
  }

  test("avg of empty group is NaN")(assert(AggCell.zero.result(AggFunc.Avg).isNaN))

  test("Partials.ofRows groups and merges consistently") {
    val aggs = Seq(AggSpec(AggFunc.Sum, t => t("v").asInstanceOf[Int].toDouble, "s"))
    val rows = Vector(
      Map[String, Any]("g" -> "a", "v" -> 1), Map[String, Any]("g" -> "b", "v" -> 2),
      Map[String, Any]("g" -> "a", "v" -> 3))
    val p = Partials.ofRows(rows, Seq("g"), aggs)
    assert(p.groups(Vector("a")).head.result(AggFunc.Sum) == 4.0)
    assert(p.groups(Vector("b")).head.result(AggFunc.Sum) == 2.0)
    val split = Partials.ofRows(rows.take(1), Seq("g"), aggs)
      .merge(Partials.ofRows(rows.drop(1), Seq("g"), aggs))
    assert(split == p)
  }

  test("missing group column groups under null") {
    val p = Partials.ofRows(Vector(Map[String, Any]("v" -> 1)), Seq("g"),
      Seq(AggSpec(AggFunc.Count, _ => 1.0, "c")))
    assert(p.groups.keySet == Set(Vector(null)))
  }
}
