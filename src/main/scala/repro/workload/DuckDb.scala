package repro.workload

import java.sql.{Connection, DriverManager}
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.types._

/** Typed in-process DuckDB database. It is the baseline timing system
  * (DESIGN.md substitution #5: DuckDB plays the commercial in-memory
  * column-store role) and the correctness oracle that tests compare Spark SQL
  * against through [[query]] and [[ResultCheck]]. Tables get real column
  * types plus ART indexes on key columns, so query timings are
  * representative.
  */
final class DuckDb extends AutoCloseable {
  Class.forName("org.duckdb.DuckDBDriver")
  val conn: Connection = DriverManager.getConnection("jdbc:duckdb:")

  private def sqlType(dt: DataType): String = dt match {
    case LongType | IntegerType | ShortType | ByteType => "BIGINT"
    case DoubleType | FloatType                        => "DOUBLE"
    case DateType                                      => "DATE"
    case _: DecimalType                                => "DOUBLE"
    case BooleanType                                   => "BOOLEAN"
    case _                                             => "VARCHAR"
  }

  /** Create and bulk-load a table from a DataFrame (collects to driver). */
  def load(name: String, df: DataFrame, indexCols: Seq[String] = Nil): Long = {
    val t0 = System.nanoTime()
    val schema = df.schema
    val ddl = schema.fields.map(f => s"${f.name} ${sqlType(f.dataType)}").mkString(", ")
    conn.createStatement.execute(s"CREATE TABLE $name ($ddl)")
    val ps = conn.prepareStatement(
      s"INSERT INTO $name VALUES (${schema.fields.map(_ => "?").mkString(",")})")
    var batch = 0
    df.collect().foreach { row =>
      schema.fields.indices.foreach { i =>
        val v = row.get(i)
        if (v == null) ps.setObject(i + 1, null)
        else schema.fields(i).dataType match {
          case LongType | IntegerType | ShortType | ByteType => ps.setLong(i + 1, row.get(i) match {
            case l: Long => l; case n: Number => n.longValue(); case o => o.toString.toLong
          })
          case DoubleType | FloatType | _: DecimalType =>
            ps.setDouble(i + 1, v match { case n: Number => n.doubleValue(); case o => o.toString.toDouble })
          case DateType    => ps.setDate(i + 1, v.asInstanceOf[java.sql.Date])
          case BooleanType => ps.setBoolean(i + 1, v.asInstanceOf[Boolean])
          case _           => ps.setString(i + 1, v.toString)
        }
      }
      ps.addBatch(); batch += 1
      if (batch % 5000 == 0) ps.executeBatch()
    }
    ps.executeBatch(); ps.close()
    indexCols.foreach { c =>
      conn.createStatement.execute(s"CREATE INDEX idx_${name}_$c ON $name($c)")
    }
    System.nanoTime() - t0
  }

  /** Run a query, materializing (and discarding) the full result. */
  def run(sql: String): Long = {
    val st = conn.createStatement()
    val rs = st.executeQuery(sql)
    var n = 0L
    val w = rs.getMetaData.getColumnCount
    while (rs.next()) { var i = 1; while (i <= w) { rs.getObject(i); i += 1 }; n += 1 }
    rs.close(); st.close()
    n
  }

  /** Run a query and return its result for [[ResultCheck]]. */
  def query(sql: String): ResultCheck.Table = {
    val st = conn.createStatement()
    try {
      val rs = st.executeQuery(sql)
      val meta = rs.getMetaData
      val cols = (1 to meta.getColumnCount).map(meta.getColumnLabel)
      val rows = Iterator.continually(rs).takeWhile(_.next())
        .map(r => cols.indices.map(i => r.getObject(i + 1))).toVector
      ResultCheck.Table(cols, rows)
    } finally st.close()
  }

  override def close(): Unit = conn.close()
}
